(* End-to-end benchmark of the simulator.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--trace-out FILE]
     bench.exe --smoke
     bench.exe --setup-only --workload NAME --seed N

   A run repeats passes of the workload until [S] seconds have gone,
   checking every machine's output. Before every pass a child process
   (--setup-only) sets the workload up from the seed again and again for
   [setup_slice_s] seconds; setup_s is the median of all these set-ups.
   With --trace 0 it prints
   the end-to-end metrics; with --trace 1 it alternates traced and
   untraced passes and prints the per-layer metrics, the self time of
   every span, the share of pass time no span covers and the tracing
   overhead. The last line of standard output is the result object.
   --smoke runs every workload once, traced, with its output checks, and
   exits non-zero on any failure. *)

module W = Workloads
module Fleet = Cheri_fleet.Fleet
module Absint = Cheri_analysis.Absint

type kind = Jobs | Fleet_run

(* What a pass leaves behind. Machines are checked and folded into this as
   soon as the pass ends: every major collection walks the run's live heap,
   so nothing that grows with the pass count may stay reachable. *)
type pass = {
  p_kind : kind;
  p_traced : bool;
  p_wall : float;                   (* seconds *)
  p_times : float array;            (* machine lifecycles, seconds *)
  p_requests : int;
  p_failed : int;
  p_counts : (string * int) list;   (* summed over the pass's machines *)
  p_fleet : (float * float array * int) option;
    (* Fleet.run wall seconds, per-domain utilization, steals *)
}

(* Signatures of the first pass of each kind: every later pass must
   reproduce them machine for machine. A replayed fleet machine must also
   reproduce the snapshot digest Fleet.run gave the same machine, which is
   the Fleet_run signature. *)
let reference : (kind, string array) Hashtbl.t = Hashtbl.create 2

let make_pass ~kind ~traced ~wall ?fleet ms =
  let sigs = Array.map (fun (m : W.machine) -> m.W.m_sig) ms in
  let ref_sigs =
    match Hashtbl.find_opt reference kind with
    | Some r -> r
    | None -> Hashtbl.add reference kind sigs; sigs
  in
  let fleet_snap i =
    match kind, Hashtbl.find_opt reference Fleet_run with
    | Jobs, Some r -> Some r.(i)
    | _ -> None
  in
  let failed = ref 0 in
  Array.iteri
    (fun i (m : W.machine) ->
      let fault =
        if not m.W.m_ok then
          Some ("output check, console " ^ String.escaped m.W.m_console)
        else if m.W.m_sig <> ref_sigs.(i) then Some "differs from its first pass"
        else if kind = Jobs && m.W.m_snap <> None && m.W.m_snap <> fleet_snap i then
          Some "replayed snapshot differs from Fleet.run's"
        else None
      in
      Option.iter
        (fun why ->
          incr failed;
          Printf.printf "FAILED %s: %s\n" m.W.m_label why)
        fault)
    ms;
  let order = ref [] and tot = Hashtbl.create 32 in
  Array.iter
    (fun (m : W.machine) ->
      List.iter
        (fun (n, v) ->
          if not (Hashtbl.mem tot n) then order := n :: !order;
          Hashtbl.replace tot n (v + Option.value ~default:0 (Hashtbl.find_opt tot n)))
        m.W.m_counts)
    ms;
  { p_kind = kind; p_traced = traced; p_wall = wall;
    p_times = Array.map (fun (m : W.machine) -> m.W.m_host_s) ms;
    p_requests = Array.fold_left (fun a (m : W.machine) -> a + m.W.m_requests) 0 ms;
    p_failed = !failed;
    p_counts = List.rev_map (fun n -> (n, Hashtbl.find tot n)) !order;
    p_fleet = fleet }

let psum name p = Option.value ~default:0 (List.assoc_opt name p.p_counts)
let sum name ps = List.fold_left (fun a p -> a + psum name p) 0 ps

(* A job that raises is a failed machine, not a failed run. *)
let failed_machine label =
  { W.m_label = label; m_ok = false; m_sig = "raised"; m_console = "";
    m_host_s = 0.0; m_requests = 0; m_snap = None; m_counts = [] }

(* Every pass starts from a collected heap: the previous pass's dead
   machines are collected before the clock starts, so passes differ only
   by the host. Within a pass the collector runs as it would for any
   in-process experiment runner. *)
let run_jobs ~traced (plan : W.plan) =
  Gc.full_major ();
  Tracer.enabled := traced;
  let t0 = Tracer.now () in
  let ms =
    Tracer.span "pass" (fun () ->
        let ms =
          List.mapi
            (fun i job ->
              let m =
                try job ()
                with e ->
                  prerr_endline ("machine raised: " ^ Printexc.to_string e);
                  failed_machine (string_of_int i)
              in
              Tracer.poll ();
              m)
            plan.W.jobs
          |> Array.of_list
        in
        plan.W.check_pass ms;
        ms)
  in
  let wall = Tracer.seconds_since t0 in
  Tracer.enabled := false;
  make_pass ~kind:Jobs ~traced ~wall ms

let run_fleet (plan : W.plan) =
  Gc.full_major ();
  let t0 = Tracer.now () in
  let r =
    Tracer.span "fleet.run" (fun () ->
        Fleet.run ~domains:W.fleet_domains (List.map fst plan.W.fleet))
  in
  let ms =
    Array.of_list
      (List.map2
         (fun r (_, rounds) -> W.of_fleet_result ~rounds r)
         (Array.to_list r.Fleet.f_results) plan.W.fleet)
  in
  Tracer.poll ();
  make_pass ~kind:Fleet_run ~traced:!Tracer.enabled ~wall:(Tracer.seconds_since t0)
    ~fleet:(r.Fleet.f_host_seconds, r.Fleet.f_util, r.Fleet.f_steals) ms

let tally passes =
  List.fold_left
    (fun (att, failed) p -> (att + Array.length p.p_times, failed + p.p_failed))
    (0, 0) passes

(* --- Measurement ----------------------------------------------------------- *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* Host time given to each slice of set-ups. *)
let setup_slice_s = 0.25

(* Set up from the seed again and again until [setup_slice_s] seconds have
   gone (at least once). Returns the seconds each set-up took. Each set-up
   starts from a collected heap, so each does the same collection work:
   without it, garbage of the earlier set-ups piled up and later set-ups of
   one slice took up to twice as long as the first. *)
let setup_slice (w : W.t) ~seed =
  let t0 = Tracer.now () in
  let rec go times =
    Gc.full_major ();
    let t = Tracer.now () in
    ignore (Sys.opaque_identity (w.W.setup ~seed));
    let times = Tracer.seconds_since t :: times in
    if Tracer.seconds_since t0 < setup_slice_s then go times else times
  in
  go []

(* setup_s is timed in a child process: before each pass the benchmark
   runs itself with --setup-only, which runs one slice of set-ups and
   prints their times. Every workload follows this one rule. The host's
   speed drifts over seconds, so set-ups spread over the whole run, as the
   passes are, give a steadier median than set-ups timed at its start
   only; and set-ups run in the benchmark's own process changed the heap
   of the passes around them (on OCaml 5.1 each forced collection made the
   following passes' heap grow further, 82 MiB to 490 MiB for bodiag-sweep
   after a thousand; set-up garbage left in a pass raised fig4-mix's peak
   by a third). *)
let child_setup_times (w : W.t) ~seed =
  let exe = Sys.executable_name in
  let r, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [| exe; "--setup-only"; "--workload"; w.W.name; "--seed"; string_of_int seed |]
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 ->
    String.split_on_char '\n' out
    |> List.filter (( <> ) "")
    |> List.map float_of_string
  | _ -> failwith "set-up child failed"

(* Run at least [min_passes] passes, then more while the next one, taking
   as long as the last, still ends within [seconds]. [pass i] runs the
   i-th pass. *)
let run_passes ~seconds ~min_passes pass =
  let t0 = Tracer.now () in
  let rec go i last acc =
    let elapsed = Tracer.seconds_since t0 in
    if i >= min_passes && elapsed +. last > seconds then List.rev acc
    else begin
      let acc = List.rev_append (pass i) acc in
      go (i + 1) (Tracer.seconds_since t0 -. elapsed) acc
    end
  in
  go 0 0.0 []

let describe name unit xs =
  let q1, m, q3 = Pb_core.quartiles xs in
  Printf.printf "%-22s %14.4f %-8s (q1 %.4f, q3 %.4f, n=%d)\n" name m unit q1 q3
    (List.length xs);
  m

(* The deterministic counters of one pass, printed as one line for the
   counter record (perfbench/counters.json). A Fleet.run pass exposes all
   but the kernel's. *)
let counter_names =
  [ "isa.insns"; "tagmem.sim_cycles"; "tagmem.il1_misses"; "tagmem.dl1_misses";
    "tagmem.l2_misses"; "kernel.boots"; "kernel.syscalls"; "kernel.signaled";
    "libc.alloc.mallocs"; "libc.alloc.frees"; "libc.alloc.remote_enq";
    "libc.alloc.remote_drained"; "libc.alloc.owner_sweeps";
    "libc.alloc.reuse_sweeps"; "libc.alloc.tags_cleared" ]

let print_counters ~workload ~seed p =
  let present n = List.mem_assoc n p.p_counts in
  Printf.printf "counters {\"workload\": %s, \"seed\": %d, %s}\n"
    (Pb_core.json_string workload) seed
    (String.concat ", "
       (List.map
          (fun n -> Printf.sprintf "%s: %d" (Pb_core.json_string n) (psum n p))
          (List.filter present counter_names)))

(* --- End-to-end run -------------------------------------------------------- *)

let end_to_end (w : W.t) ~seed ~seconds =
  let plan = w.W.setup ~seed in
  let fleet = plan.W.fleet <> [] in
  let setup_times = ref [] in
  let passes =
    run_passes ~seconds ~min_passes:1 (fun _ ->
        setup_times := List.rev_append (child_setup_times w ~seed) !setup_times;
        [ (if fleet then run_fleet plan else run_jobs ~traced:false plan) ])
  in
  let attempted, failed = tally passes in
  let per_pass f = List.map (fun p -> f p /. p.p_wall) passes in
  Printf.printf "workload %s seed %d: %d passes, %d machines per pass\n" w.W.name
    seed (List.length passes) (Array.length (List.hd passes).p_times);
  Printf.printf "pass seconds: %s\n"
    (String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" p.p_wall) passes));
  let sim_mips =
    describe "sim_mips" "Minsn/s"
      (per_pass (fun p -> float_of_int (psum "isa.insns" p) /. 1e6))
  in
  let times =
    List.concat_map
      (fun p -> Array.to_list (Array.map (fun t -> t *. 1000.0) p.p_times))
      passes
  in
  let p50 = describe "machine_p50_ms" "ms" times in
  (match Pb_core.tail_percentile times with
   | Some (p, v, beyond) ->
     Printf.printf "machine_p%g_ms %20.4f ms       (%d of %d samples beyond)\n" p v
       beyond (List.length times)
   | None ->
     Printf.printf "machine tail: not reported (fewer than 10 of %d samples beyond p75)\n"
       (List.length times));
  let requests =
    describe "requests_per_s" "req/s"
      (per_pass (fun p ->
           float_of_int
             (if fleet then p.p_requests else Array.length p.p_times)))
  in
  (* Printed only: see README.md. *)
  ignore
    (describe "alloc_ops_per_s" "op/s"
       (per_pass (fun p ->
            float_of_int (psum "libc.alloc.mallocs" p + psum "libc.alloc.frees" p))));
  let rss = peak_rss_mb () in
  Printf.printf "%-22s %14.4f MiB\n" "peak_rss_mb" rss;
  let setup_s = describe "setup_s" "s" !setup_times in
  Printf.printf "%-22s %14.4f ratio    (%d failed of %d machines)\n" "error_rate"
    (float_of_int failed /. float_of_int attempted) failed attempted;
  print_counters ~workload:w.W.name ~seed (List.hd passes);
  ( failed = 0,
    attempted,
    failed,
    [ "sim_mips", sim_mips, "Minsn/s";
      "machine_p50_ms", p50, "ms";
      "requests_per_s", requests, "req/s";
      "peak_rss_mb", rss, "MiB";
      "setup_s", setup_s, "s" ] )

(* --- Traced run ------------------------------------------------------------ *)

let ms_of_ns ns = float_of_int ns /. 1e6

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

type gc_delta = {
  mutable minor : int;
  mutable major : int;
  mutable minor_words : float;
  mutable promoted : float;
}

let traced (w : W.t) ~seed ~seconds ~trace_out =
  Tracer.start ();
  Gc.full_major ();
  let plan = Tracer.span "setup" (fun () -> w.W.setup ~seed) in
  let setup_compiles =
    List.length (List.filter (fun s -> s.Pb_core.sp_name = "cc.compile") !Tracer.spans)
  in
  let fleet = plan.W.fleet <> [] in
  let a0 = Absint.stats in
  let gcd = { minor = 0; major = 0; minor_words = 0.0; promoted = 0.0 } in
  let fact_hits = ref 0 and fact_misses = ref 0 and lazy_sb = ref 0 in
  let windows = ref [] in
  (* Traced and untraced passes alternate, traced first, so the tracing
     overhead compares passes run under the same host conditions. *)
  let passes =
    run_passes ~seconds ~min_passes:2 (fun i ->
        let traced = i mod 2 = 0 in
        if not traced then [ run_jobs ~traced:false plan ]
        else begin
          Tracer.enabled := true;
          let g0 = Gc.quick_stat () in
          let t0 = Tracer.now () in
          let fp = if fleet then [ run_fleet plan ] else [] in
          let h0 = a0.Absint.cs_hits and m0 = a0.Absint.cs_misses
          and l0 = a0.Absint.cs_lazy_sb in
          let jp = run_jobs ~traced:true plan in
          fact_hits := !fact_hits + a0.Absint.cs_hits - h0;
          fact_misses := !fact_misses + a0.Absint.cs_misses - m0;
          lazy_sb := !lazy_sb + a0.Absint.cs_lazy_sb - l0;
          windows := (t0, Tracer.now ()) :: !windows;
          let g1 = Gc.quick_stat () in
          gcd.minor <- gcd.minor + g1.Gc.minor_collections - g0.Gc.minor_collections;
          gcd.major <- gcd.major + g1.Gc.major_collections - g0.Gc.major_collections;
          gcd.minor_words <- gcd.minor_words +. g1.Gc.minor_words -. g0.Gc.minor_words;
          gcd.promoted <- gcd.promoted +. g1.Gc.promoted_words -. g0.Gc.promoted_words;
          fp @ [ jp ]
        end)
  in
  Tracer.stop ();
  let attempted, failed = tally passes in
  let jobs traced = List.filter (fun p -> p.p_kind = Jobs && p.p_traced = traced) passes in
  let tp = jobs true in
  let np = float_of_int (List.length tp) in
  let machines = List.fold_left (fun a p -> a + Array.length p.p_times) 0 tp in
  let per_pass name = float_of_int (sum name tp) /. np in
  let mips ps =
    Pb_core.median
      (List.map (fun p -> float_of_int (psum "isa.insns" p) /. p.p_wall /. 1e6) ps)
  in
  let traced_mips = mips tp and plain_mips = mips (jobs false) in
  let in_window t = List.exists (fun (a, b) -> a <= t && t < b) !windows in
  (* Self times and pause overlay cover the traced passes only; mean span
     times also count the compiles of the traced set-up. *)
  let spans = List.filter (fun s -> in_window s.Pb_core.sp_t0) !Tracer.spans in
  let named n = List.filter (fun s -> s.Pb_core.sp_name = n) !Tracer.spans in
  let total n = List.fold_left (fun a s -> a + Pb_core.duration s) 0 (named n) in
  let mean_ms n =
    let l = List.length (named n) in
    if l = 0 then 0.0 else ms_of_ns (total n) /. float_of_int l
  in
  let words n = Option.value ~default:0.0 (Hashtbl.find_opt W.layer_totals n) in
  let mwords_per n = let l = List.length (named n) in
    if l = 0 then 0.0 else words n /. float_of_int l /. 1e6 in
  let self = Pb_core.self_by_name spans in
  let self_ms n = ms_of_ns (Option.value ~default:0 (Hashtbl.find_opt self n)) /. np in
  let pauses = List.filter (fun p -> in_window p.Tracer.pa_t0) !Tracer.pauses in
  let pause_ns = List.map (fun p -> Int64.to_int (Int64.sub p.Tracer.pa_t1 p.Tracer.pa_t0)) pauses in
  let reports = List.filter_map (fun p -> p.p_fleet) passes in
  let fleet_wall, fleet_busy, fleet_util, fleet_steals =
    match reports with
    | [] ->
      (* A batch workload is a one-worker fleet: machines back to back. *)
      let busy =
        List.map (fun p -> Array.fold_left ( +. ) 0.0 p.p_times) tp
      in
      let wall = List.map (fun p -> p.p_wall) tp in
      ( Pb_core.median wall, Pb_core.median busy,
        Pb_core.median (List.map2 ( /. ) busy wall), 0.0 )
    | rs ->
      let med f = Pb_core.median (List.map f rs) in
      ( med (fun (wall, _, _) -> wall),
        med (fun (wall, util, _) -> Array.fold_left (fun a u -> a +. (u *. wall)) 0.0 util),
        med (fun (_, util, _) ->
            Array.fold_left ( +. ) 0.0 util /. float_of_int (Array.length util)),
        med (fun (_, _, steals) -> float_of_int steals) )
  in
  let insns = sum "isa.insns" tp in
  let frees = sum "libc.alloc.frees" tp in
  let top_heap_mb = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. 1048576.0 in
  let metrics =
    [ "cc.compile_ms", mean_ms "cc.compile", "ms";
      "cc.compile_mwords", mwords_per "cc.compile", "Mword";
      "cc.images",
      float_of_int setup_compiles
      +. (float_of_int (List.length (named "cc.compile") - setup_compiles) /. np),
      "count";
      "kernel.boot_ms", mean_ms "kernel.boot", "ms";
      "kernel.boot_mwords", mwords_per "kernel.boot", "Mword";
      "kernel.boots", per_pass "kernel.boots", "count";
      "kernel.spawn_ms", mean_ms "kernel.spawn", "ms";
      "kernel.syscalls", per_pass "kernel.syscalls", "count";
      "kernel.signaled", per_pass "kernel.signaled", "count";
      "analysis.fact_cache_hits", float_of_int !fact_hits /. np, "count";
      "analysis.fact_cache_misses", float_of_int !fact_misses /. np, "count";
      "analysis.lazy_superblocks", float_of_int !lazy_sb /. np, "count";
      "analysis.probes_checked", per_pass "analysis.probes_checked", "count";
      "analysis.probes_elided", per_pass "analysis.probes_elided", "count";
      "analysis.elide_rate",
      ratio (sum "analysis.probes_elided" tp)
        (sum "analysis.probes_elided" tp + sum "analysis.probes_checked" tp),
      "ratio";
      "isa.run_ms", mean_ms "isa.run", "ms";
      "isa.insns", per_pass "isa.insns", "count";
      "isa.run_mips", float_of_int insns /. (ms_of_ns (total "isa.run") *. 1e3), "Minsn/s";
      "isa.words_per_insn", words "isa.run" /. float_of_int insns, "word/insn";
      "isa.chain_entries", per_pass "isa.chain_entries", "count";
      "isa.ic_hit_rate",
      ratio (sum "isa.ic_hits" tp) (sum "isa.ic_hits" tp + sum "isa.ic_misses" tp),
      "ratio";
      "isa.dtlb_hit_rate",
      ratio (sum "isa.dtlb_hits" tp) (sum "isa.dtlb_hits" tp + sum "isa.dtlb_misses" tp),
      "ratio";
      "isa.fused_insn_rate", ratio (sum "isa.fused_insns" tp) insns, "ratio";
      "tagmem.sim_cycles", per_pass "tagmem.sim_cycles", "count";
      "tagmem.il1_misses", per_pass "tagmem.il1_misses", "count";
      "tagmem.dl1_misses", per_pass "tagmem.dl1_misses", "count";
      "tagmem.l2_misses", per_pass "tagmem.l2_misses", "count";
      "libc.rt_calls", words "libc.rt_calls" /. np, "count";
      "libc.rt_ms", ms_of_ns (total "libc.rt") /. float_of_int machines, "ms";
      "libc.alloc.mallocs", per_pass "libc.alloc.mallocs", "count";
      "libc.alloc.frees", per_pass "libc.alloc.frees", "count";
      "libc.alloc.remote_enq", per_pass "libc.alloc.remote_enq", "count";
      "libc.alloc.remote_drained", per_pass "libc.alloc.remote_drained", "count";
      "libc.alloc.owner_sweeps", per_pass "libc.alloc.owner_sweeps", "count";
      "libc.alloc.reuse_sweeps", per_pass "libc.alloc.reuse_sweeps", "count";
      "libc.alloc.tags_cleared", per_pass "libc.alloc.tags_cleared", "count";
      "libc.alloc.sweeps_per_free",
      ratio (sum "libc.alloc.owner_sweeps" tp + sum "libc.alloc.reuse_sweeps" tp) frees,
      "ratio";
      "fleet.wall_s", fleet_wall, "s";
      "fleet.machine_busy_s", fleet_busy, "s";
      "fleet.utilization", fleet_util, "ratio";
      "fleet.steals", fleet_steals, "count";
      "gc.minor_collections", float_of_int gcd.minor /. np, "count";
      "gc.major_collections", float_of_int gcd.major /. np, "count";
      "gc.minor_mwords", gcd.minor_words /. np /. 1e6, "Mword";
      "gc.promoted_mwords", gcd.promoted /. np /. 1e6, "Mword";
      "gc.top_heap_mb", top_heap_mb, "MiB";
      "gc.pause_ms", ms_of_ns (List.fold_left ( + ) 0 pause_ns) /. np, "ms";
      "gc.pause_p99_us",
      (if pause_ns = [] then 0.0
       else
         float_of_int (Pb_core.nearest_rank (Pb_core.sorted_copy pause_ns) 99.0) /. 1e3),
      "us";
      "self.machine_ms", self_ms "machine", "ms";
      "self.kernel.boot_ms", self_ms "kernel.boot", "ms";
      "self.libc.install_ms", self_ms "libc.install", "ms";
      "self.kernel.spawn_ms", self_ms "kernel.spawn", "ms";
      "self.isa.run_ms", self_ms "isa.run", "ms";
      "self.libc.rt_ms", self_ms "libc.rt", "ms";
      "trace.uncovered_share", Pb_core.uncovered_share ~root:"pass" spans, "ratio";
      "trace.overhead_pct", 100.0 *. (plain_mips -. traced_mips) /. plain_mips, "%" ]
  in
  Printf.printf "workload %s seed %d (traced): %d traced + %d untraced passes\n"
    w.W.name seed (List.length tp) (List.length (jobs false));
  List.iter (fun (n, v, u) -> Printf.printf "  %-28s %16.4f %s\n" n v u) metrics;
  (* Metrics that exist only where their layer runs. *)
  Printf.printf "  -- layer-specific --\n";
  let opt n v u = Printf.printf "  %-28s %16s %s\n" n v u in
  let if_any span v = if named span = [] then "n/a" else Printf.sprintf "%.4f" v in
  opt "analysis.provider_ms" (if_any "analysis.provider" (mean_ms "analysis.provider")) "ms";
  opt "self.analysis.provider_ms" (if_any "analysis.provider" (self_ms "analysis.provider")) "ms";
  opt "self.cc.compile_ms" (if_any "cc.compile" (self_ms "cc.compile")) "ms";
  opt "fleet.boot_ms" (if_any "fleet.snapshot" (mean_ms "kernel.boot")) "ms";
  opt "fleet.run_ms" (if_any "fleet.snapshot" (mean_ms "isa.run")) "ms";
  opt "fleet.snapshot_ms" (if_any "fleet.snapshot" (mean_ms "fleet.snapshot")) "ms";
  (match reports with
   | (_, util, _) :: _ ->
     Printf.printf "  fleet.utilization per domain: %s\n"
       (String.concat " "
          (Array.to_list (Array.mapi (fun d u -> Printf.sprintf "d%d=%.3f" d u) util)))
   | [] -> ());
  (* Boot and snapshot shares of a machine lifecycle. *)
  let machine_ns = total "machine" in
  Printf.printf "  boot share of machine time: %.3f   snapshot share: %.3f\n"
    (ratio (total "kernel.boot") machine_ns)
    (ratio (total "fleet.snapshot") machine_ns);
  Printf.printf "  traced sim_mips %.4f, untraced %.4f\n" traced_mips plain_mips;
  Printf.printf "  -- self time per span, ms per traced pass --\n";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) self []
  |> List.sort compare
  |> List.iter (fun (k, v) -> Printf.printf "  %-28s %16.4f\n" k (ms_of_ns v /. np));
  Printf.printf "  -- GC pause time laid over spans, ms (lost events %d) --\n"
    !Tracer.lost_events;
  List.iter
    (fun (k, v) -> Printf.printf "  %-28s %16.4f\n" k (ms_of_ns v))
    (Tracer.pause_overlay ~spans pauses);
  let by_dom = Hashtbl.create 2 in
  List.iter2
    (fun (p : Tracer.pause) ns ->
      Hashtbl.replace by_dom p.Tracer.pa_domain
        (ns + Option.value ~default:0 (Hashtbl.find_opt by_dom p.Tracer.pa_domain)))
    pauses pause_ns;
  Hashtbl.iter
    (fun d ns -> Printf.printf "  gc.pause_ms domain %d: %.4f per pass\n" d (ms_of_ns ns /. np))
    by_dom;
  print_counters ~workload:w.W.name ~seed (List.hd tp);
  Option.iter Tracer.write_file trace_out;
  (failed = 0, attempted, failed, metrics)

(* --- Smoke ------------------------------------------------------------------ *)

(* Every workload once: one setup and one traced pass (for tls-fleet also
   one Fleet.run), with all output checks. *)
let smoke () =
  let bad =
    List.filter
      (fun (w : W.t) ->
        Hashtbl.reset reference;
        let plan = w.W.setup ~seed:1 in
        (* The Fleet.run pass first: the replay is checked against it. *)
        let fp = if plan.W.fleet <> [] then [ run_fleet plan ] else [] in
        let passes = fp @ [ run_jobs ~traced:true plan ] in
        let attempted, failed = tally passes in
        Printf.printf "smoke %-14s %d machines, %d failed\n%!" w.W.name attempted failed;
        failed > 0)
      W.all
  in
  if bad <> [] then exit 1

(* --- Command line ----------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0
  and trace = ref (-1) and trace_out = ref None and smoke_mode = ref false
  and setup_only = ref false in
  let specs =
    [ "--workload", Arg.Set_string workload, "NAME workload to run";
      "--seed", Arg.Set_int seed, "N input seed";
      "--seconds", Arg.Set_float seconds, "S measured seconds";
      "--trace", Arg.Set_int trace, "0|1 end-to-end or traced run";
      "--trace-out", Arg.String (fun s -> trace_out := Some s), "FILE span dump";
      "--smoke", Arg.Set smoke_mode, " run every workload once with its checks";
      "--setup-only", Arg.Set setup_only, " print the times of one slice of set-ups" ]
  in
  let usage =
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 | --smoke\n\
    \     | --setup-only --workload NAME --seed N"
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !smoke_mode then smoke ()
  else begin
    let w =
      match List.find_opt (fun (w : W.t) -> w.W.name = !workload) W.all with
      | Some w -> w
      | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
    in
    if !setup_only && !seed >= 0 then begin
      List.iter (Printf.printf "%.9f\n") (setup_slice w ~seed:!seed);
      exit 0
    end;
    if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
      prerr_endline usage;
      exit 2
    end;
    let correct, attempted, failed, metrics =
      if !trace = 1 then traced w ~seed:!seed ~seconds:!seconds ~trace_out:!trace_out
      else end_to_end w ~seed:!seed ~seconds:!seconds
    in
    print_endline (Pb_core.result_json ~correct ~attempted ~failed metrics)
  end
