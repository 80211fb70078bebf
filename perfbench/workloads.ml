(* The four workloads. Each builds its inputs from the seed in [setup] and
   then runs passes of whole machine lifecycles through the simulator's
   public entry points, exactly as the paper experiments and cheri_run
   drive them. See README.md for why each workload exists. *)

module Abi = Cheri_core.Abi
module Kernel = Cheri_kernel.Kernel
module Kstate = Cheri_kernel.Kstate
module Proc = Cheri_kernel.Proc
module Vfs = Cheri_kernel.Vfs
module Cpu = Cheri_isa.Cpu
module Bbcache = Cheri_isa.Bbcache
module Cache = Cheri_tagmem.Cache
module Sobj = Cheri_rtld.Sobj
module Absint = Cheri_analysis.Absint
module Runtime = Cheri_libc.Runtime
module Malloc_impl = Cheri_libc.Malloc_impl
module Fleet = Cheri_fleet.Fleet
module Bodiag = Cheri_workloads.Bodiag
module Harness = Cheri_workloads.Harness
module Stdlib_src = Cheri_workloads.Stdlib_src

(* One machine lifecycle as the benchmark saw it. [m_counts] are the
   deterministic simulated counters; [m_sig] renders everything that must
   repeat exactly when the same input runs again. *)
type machine = {
  m_label : string;
  mutable m_ok : bool;
  m_sig : string;
  m_console : string;
  m_host_s : float;
  m_requests : int;
  m_snap : string option;                 (* Fleet.snapshot digest *)
  m_counts : (string * int) list;
}

type plan = {
  jobs : (unit -> machine) list;          (* one pass, run in order *)
  fleet : (Fleet.machine_spec * int) list;
    (* tls-fleet: the same machines as Fleet.run specs, with the rounds
       each must serve *)
  check_pass : machine array -> unit;     (* cross-machine output checks *)
}

type t = {
  name : string;
  setup : seed:int -> plan;
}

let count_char s c =
  String.fold_left (fun n ch -> if ch = c then n + 1 else n) 0 s

(* Traced-run totals per layer: words allocated inside each traced call
   and runtime-builtin calls. *)
let layer_totals = Hashtbl.create 8

let add_total name w =
  Hashtbl.replace layer_totals name
    (w +. Option.value ~default:0.0 (Hashtbl.find_opt layer_totals name))

let traced_words name f =
  if not !Tracer.enabled then Tracer.span name f
  else begin
    let w0 = Tracer.words () in
    let r = Tracer.span name f in
    add_total name (Tracer.words () -. w0);
    r
  end

let compile ~abi ~name ?libs src =
  traced_words "cc.compile" (fun () ->
      Cheri_cc.Compile.build_image ~abi ~name ?libs src)

let compile_libc ~abi ~name ?(extra_libs = []) src =
  compile ~abi ~name
    ~libs:(("libc", Stdlib_src.libc_src) :: extra_libs)
    (Stdlib_src.libc_externs ^ src)

(* --- The machine lifecycle ------------------------------------------------- *)

let status_string = function
  | Some (Proc.Exited n) -> Printf.sprintf "exit %d" n
  | Some (Proc.Signaled s) -> Printf.sprintf "signal %d" s
  | None -> "running"

(* Boot, install the runtime, exec, run, and read every counter. With
   tracing on, the two hooks the kernel exposes are wrapped: the fact
   provider becomes an "analysis.provider" span, and the runtime-builtin
   dispatcher is counted and timed per call, reported as one aggregated
   "libc.rt" span per machine. [check] gives the machine's output verdict
   and, for a fleet machine, its snapshot digest. *)
let lifecycle ~label ~mem_size ~elide ~abi ~image ~path ~argv ~exec ~check () =
  let t0 = Tracer.now () in
  Tracer.machine_span @@ fun () ->
  let k = traced_words "kernel.boot" (fun () -> Kernel.boot ~mem_size ()) in
  if elide then begin
    let prov = Absint.provider () in
    k.Kstate.config.Kstate.fact_provider <-
      Some
        (if !Tracer.enabled then fun ~image ~ddc ~entries ~got regions ->
           Tracer.span "analysis.provider" (fun () ->
               prov ~image ~ddc ~entries ~got regions)
         else prov)
  end;
  Tracer.span "libc.install" (fun () -> Runtime.install k);
  let rt_calls = ref 0 and rt_ns = ref 0 in
  (if !Tracer.enabled then
     match k.Kstate.rt_handler with
     | Some h ->
       k.Kstate.rt_handler <-
         Some
           (fun k p n ->
             let c0 = Tracer.now () in
             let account () =
               incr rt_calls;
               rt_ns := !rt_ns + Int64.to_int (Int64.sub (Tracer.now ()) c0)
             in
             match h k p n with
             | () -> account ()
             | exception e -> account (); raise e)
     | None -> ());
  let image : Sobj.image = image () in
  Vfs.add_exe k.Kstate.vfs path ~abi image;
  let p = Tracer.span "kernel.spawn" (fun () -> Kernel.spawn k ~path ~argv ()) in
  let insns =
    traced_words "isa.run" (fun () ->
        let n = exec k p in
        Tracer.agg "libc.rt" ~calls:!rt_calls ~ns:!rt_ns;
        n)
  in
  add_total "libc.rt_calls" (float_of_int !rt_calls);
  let status = match p.Proc.state with Proc.Zombie s -> Some s | _ -> None in
  let console = Buffer.contents p.Proc.console in
  let extra_ok, snap = check k p status console in
  let h = Kstate.hierarchy k in
  let bb = k.Kstate.bb in
  let ch = Bbcache.chain_stats bb in
  let alloc = Malloc_impl.machine_counters k in
  let counts =
    [ "isa.insns", insns;
      "tagmem.sim_cycles", p.Proc.ctx.Cpu.cycles;
      "tagmem.il1_misses", Cache.misses h.Cache.il1;
      "tagmem.dl1_misses", Cache.misses h.Cache.dl1;
      "tagmem.l2_misses", Cache.misses h.Cache.l2;
      "kernel.boots", 1;
      "kernel.syscalls", Hashtbl.fold (fun _ n a -> a + n) k.Kstate.syscall_stats 0;
      "kernel.signaled",
      (match status with Some (Proc.Signaled _) -> 1 | _ -> 0) ]
    @ List.map (fun (n, v) -> ("libc.alloc." ^ n, v)) alloc
    @ [ "isa.chain_entries", ch.Bbcache.ch_entries;
        "isa.ic_hits", ch.Bbcache.ch_ic_hits;
        "isa.ic_misses", ch.Bbcache.ch_ic_misses;
        "isa.dtlb_hits", ch.Bbcache.ch_dtlb_hits;
        "isa.dtlb_misses", ch.Bbcache.ch_dtlb_misses;
        "isa.fused_insns", ch.Bbcache.ch_fused_insns;
        "analysis.probes_checked", bb.Bbcache.checked_probes;
        "analysis.probes_elided", bb.Bbcache.elided_probes ]
  in
  (* The signature covers the counters the simulator defines exactly:
     retired instructions, the simulated cache model and the
     allocator. The engine's own visibility counters are left out. *)
  let det =
    List.filter
      (fun (n, _) ->
        List.exists
          (fun pre -> String.starts_with ~prefix:pre n)
          [ "isa.insns"; "tagmem."; "libc.alloc."; "kernel." ])
      counts
  in
  let sig_ =
    Printf.sprintf "%s|%s|%s|%s" (status_string status) console
      (String.concat "," (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) det))
      (Option.value ~default:"" snap)
    |> Digest.string |> Digest.to_hex
  in
  { m_label = label;
    m_ok = extra_ok;
    m_sig = sig_;
    m_console = console;
    m_host_s = Tracer.seconds_since t0;
    m_requests = count_char console '#';
    m_snap = snap;
    m_counts = counts }

let run_to_end ~max_steps k _p = Kernel.run ~max_steps k

let exited0 status = status = Some (Proc.Exited 0)

(* --- fig4-mix -------------------------------------------------------------- *)

(* The twelve Fig. 4 kernels under mips64 and cheriabi, each in a fresh
   machine with a cold fact cache, as cheri_run --elide-checks runs them. *)
let fig4_mix =
  let setup ~seed =
    let images =
      List.concat_map
        (fun (name, src) ->
          let src = Harness.perturb_seeds src seed in
          List.map
            (fun abi ->
              (Printf.sprintf "%s/%s" name (Abi.to_string abi), abi,
               compile_libc ~abi ~name src))
            [ Abi.Mips64; Abi.Cheriabi ])
        Cheri_workloads.Mibench.benchmarks
    in
    let jobs =
      List.map
        (fun (label, abi, image) () ->
          Absint.clear_fact_cache ();
          lifecycle ~label ~mem_size:(64 * 1024 * 1024) ~elide:true ~abi
            ~image:(fun () -> image) ~path:"/bin/bench" ~argv:[ "bench" ]
            ~exec:(run_to_end ~max_steps:400_000_000)
            ~check:(fun _ _ status _ -> (exited0 status, None))
            ())
        images
    in
    (* Machines come in (mips64, cheriabi) pairs of one kernel: both must
       exit 0 with identical consoles. *)
    let check_pass ms =
      Array.iteri
        (fun i m ->
          let twin = ms.(i lxor 1) in
          if m.m_console <> twin.m_console || not twin.m_ok then m.m_ok <- false)
        ms
    in
    { jobs; fleet = []; check_pass }
  in
  { name = "fig4-mix"; setup }

(* --- bodiag-sweep ---------------------------------------------------------- *)

(* The outcome the full Table 3 run records under cheriabi: every ok
   variant runs clean; min is missed only by the intra-object tests
   (bounds are per allocation), med only by the two deep-tail ones; large
   is always detected. 279/289/291 detections in all. *)
let bodiag_expect_detect (t : Bodiag.test) = function
  | Bodiag.Vok -> false
  | Bodiag.Vmin -> (match t.Bodiag.t_family with Bodiag.Fintra _ -> false | _ -> true)
  | Bodiag.Vmed -> t.Bodiag.t_family <> Bodiag.Fintra true
  | Bodiag.Vlarge -> true

let bodiag_totals () =
  List.map
    (fun v ->
      List.length (List.filter (fun t -> bodiag_expect_detect t v) Bodiag.tests))
    [ Bodiag.Vmin; Bodiag.Vmed; Bodiag.Vlarge ]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* The whole suite, every (test, variant) pair, in seeded order: each pass
   is the full cheriabi column of Table 3, so the work does not depend on
   the seed. Each program is compiled and run in its own 12 MiB machine as
   Bodiag.run_one does, so compilation is part of the lifecycle. *)
let bodiag_sweep =
  let setup ~seed =
    if bodiag_totals () <> [ 279; 289; 291 ] then
      failwith "bodiag-sweep: expected-outcome table disagrees with Table 3";
    let rng = Random.State.make [| seed; 0xb0d1a9 |] in
    let picks =
      Array.of_list
        (List.concat_map (fun t -> List.map (fun v -> (t, v)) Bodiag.variants) Bodiag.tests)
    in
    shuffle rng picks;
    let programs =
      Array.map (fun (t, v) -> (t, v, Bodiag.source t v)) picks |> Array.to_list
    in
    let jobs =
      List.map
        (fun ((t : Bodiag.test), v, src) () ->
          let label = Printf.sprintf "bo%d/%s" t.Bodiag.t_id (Bodiag.variant_name v) in
          lifecycle ~label ~mem_size:(12 * 1024 * 1024) ~elide:false
            ~abi:Abi.Cheriabi
            ~image:(fun () -> compile ~abi:Abi.Cheriabi ~name:"/bin/bo" src)
            ~path:"/bin/bo" ~argv:[ "bo" ]
            ~exec:(run_to_end ~max_steps:6_000_000)
            ~check:(fun _ _ status _ ->
              let detected =
                match status with
                | Some (Proc.Exited 9) | Some (Proc.Signaled _) -> Some true
                | Some (Proc.Exited 0) -> Some false
                | _ -> None
              in
              (detected = Some (bodiag_expect_detect t v), None))
            ())
        programs
    in
    { jobs; fleet = []; check_pass = ignore }
  in
  { name = "bodiag-sweep"; setup }

(* --- tls-fleet ------------------------------------------------------------- *)

let fleet_machines = 9
let fleet_rounds = 40
let fleet_domains = 2

(* The three s_server traffic classes of Fleet.traffic_mix, with the seed
   fed to each class's server source. Returns the specs and the rounds
   each machine must serve. *)
let fleet_specs ~seed =
  let classes =
    List.map
      (fun (cname, rounds, payload, base) ->
        let src =
          Cheri_workloads.Openssl_sim.traffic_server_src ~rounds ~payload
            ~seed:(base + (seed * 101))
        in
        let image =
          compile_libc ~abi:Abi.Cheriabi ~name:("s_server_" ^ cname)
            ~extra_libs:[ "libssl", Cheri_workloads.Openssl_sim.libssl_src ]
            src
        in
        (cname, rounds, image))
      (Fleet.traffic_classes ~rounds:fleet_rounds)
    |> Array.of_list
  in
  List.init fleet_machines (fun i ->
      let cname, rounds, image = classes.(i mod Array.length classes) in
      ( { Fleet.ms_label = Printf.sprintf "s_server/%s/%d" cname i;
          ms_abi = Abi.Cheriabi;
          ms_image = image;
          ms_path = "/bin/s_server";
          ms_argv = [ "s_server"; "-port"; string_of_int (4433 + i) ];
          ms_max_steps = 400_000_000;
          ms_marker = '#' },
        rounds ))

(* The fleet's machine check: exit 0 and one marker per round served. *)
let fleet_check ~rounds status console =
  exited0 status && count_char console '#' = rounds

(* The replay of one fleet machine through the same public calls
   Fleet.run_machine makes: chunked run with marker sampling, then the
   full-state snapshot. Its snapshot digest is compared with the one
   Fleet.run produced for the same machine (see Bench.make_pass). *)
let fleet_replay ((spec : Fleet.machine_spec), rounds) () =
  lifecycle ~label:spec.Fleet.ms_label ~mem_size:(64 * 1024 * 1024) ~elide:true
    ~abi:spec.Fleet.ms_abi
    ~image:(fun () -> spec.Fleet.ms_image)
    ~path:spec.Fleet.ms_path ~argv:spec.Fleet.ms_argv
    ~exec:(fun k p ->
      let seen = ref 0 in
      Kernel.run_chunked ~chunk:Fleet.chunk_insns ~max_steps:spec.Fleet.ms_max_steps
        k p ~on_chunk:(fun () ->
          seen := count_char (Buffer.contents p.Proc.console) spec.Fleet.ms_marker))
    ~check:(fun k p status console ->
      let snap = Tracer.span "fleet.snapshot" (fun () -> Fleet.snapshot k p status) in
      (fleet_check ~rounds status console, Some (Digest.to_hex (Digest.string snap))))
    ()

let tls_fleet =
  let setup ~seed =
    let specs = fleet_specs ~seed in
    { jobs = List.map fleet_replay specs;
      fleet = specs;
      check_pass = ignore }
  in
  { name = "tls-fleet"; setup }

(* A Fleet.run result as a benchmark machine: same checks as the replay,
   with the snapshot digest in place of the lifecycle signature. *)
let of_fleet_result ~rounds (r : Fleet.machine_result) =
  (* The cache counters are read back from the snapshot's
     "il1=hits/misses dl1=... l2=..." line. *)
  let il1, dl1, l2 =
    List.find_map
      (fun line ->
        if String.starts_with ~prefix:"il1=" line then
          Some (Scanf.sscanf line "il1=%_d/%d dl1=%_d/%d l2=%_d/%d" (fun a b c -> (a, b, c)))
        else None)
      (String.split_on_char '\n' r.Fleet.mr_snapshot)
    |> Option.get
  in
  let counts =
    [ "isa.insns", r.Fleet.mr_insns;
      "tagmem.sim_cycles", r.Fleet.mr_cycles;
      "tagmem.il1_misses", il1;
      "tagmem.dl1_misses", dl1;
      "tagmem.l2_misses", l2;
      "kernel.boots", 1 ]
    @ List.map (fun (n, v) -> ("libc.alloc." ^ n, v)) r.Fleet.mr_alloc
  in
  let snap = Digest.to_hex (Digest.string r.Fleet.mr_snapshot) in
  { m_label = r.Fleet.mr_label;
    m_ok = fleet_check ~rounds r.Fleet.mr_status r.Fleet.mr_output;
    m_sig = snap;
    m_console = r.Fleet.mr_output;
    m_host_s = r.Fleet.mr_host_seconds;
    m_requests = r.Fleet.mr_requests;
    m_snap = Some snap;
    m_counts = counts }

(* --- malloc-churn ---------------------------------------------------------- *)

let churn_machines = 3
let churn_objs = 200
let churn_generations = 8
let churn_churn = 20_000

(* Malloc_bench.contention_src with its size-formula multipliers drawn
   from the seed. Any positive multiplier keeps every size inside the
   original ranges (the formulas reduce modulo the range width). *)
let churn_src ~seed i =
  let rng = Random.State.make [| seed; i; 0xa110c |] in
  let mult () = 1 + (2 * Random.State.int rng 200) in
  let src =
    Cheri_workloads.Malloc_bench.contention_src ~objs:churn_objs
      ~generations:churn_generations ~churn:churn_churn ()
  in
  List.fold_left
    (fun src (var, m) ->
      let pat = Printf.sprintf "%s * %d" var m in
      let n = String.length pat in
      let rec find i =
        if i + n > String.length src then
          failwith ("malloc-churn: no formula " ^ pat)
        else if String.sub src i n = pat then i
        else find (i + 1)
      in
      let i = find 0 in
      String.sub src 0 i
      ^ Printf.sprintf "%s * %d" var (mult ())
      ^ String.sub src (i + n) (String.length src - i - n))
    src [ "i", 53; "i", 97; "j", 37; "gen", 101 ]

(* What the root prints: one '#' per reaped child, then the sum of the
   first bytes of the objects it kept (address bytes where it planted a
   capability, so only repetition can check the number), then "malloc ok". *)
let churn_console_ok console =
  let markers = String.make churn_generations '#' in
  String.starts_with ~prefix:markers console
  && String.ends_with ~suffix:" malloc ok" console
  && count_char console '#' = churn_generations

let malloc_churn =
  let setup ~seed =
    let jobs =
      List.init churn_machines (fun i ->
          let image =
            compile_libc ~abi:Abi.Cheriabi ~name:"churn" (churn_src ~seed i)
          in
          fun () ->
            Absint.clear_fact_cache ();
            lifecycle ~label:(Printf.sprintf "churn/%d" i)
              ~mem_size:(64 * 1024 * 1024) ~elide:true ~abi:Abi.Cheriabi
              ~image:(fun () -> image) ~path:"/bin/churn" ~argv:[ "churn" ]
              ~exec:(run_to_end ~max_steps:400_000_000)
              ~check:(fun k _ status console ->
                let c = Malloc_impl.machine_counters k in
                let get n = List.assoc n c in
                ( exited0 status && churn_console_ok console
                  && get "remote_enq" = get "remote_drained"
                  && get "pending_remote" = 0,
                  None ))
              ())
    in
    { jobs; fleet = []; check_pass = ignore }
  in
  { name = "malloc-churn"; setup }

let all = [ fig4_mix; bodiag_sweep; tls_fleet; malloc_churn ]
