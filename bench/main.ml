(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5) on the simulated system.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe table1     -- one experiment
     (table1 table2 table3 fig4 fig5 syscalls initdb ablation
      cachestudy bugs simulator)

   Absolute numbers come from a synthetic cycle model; EXPERIMENTS.md
   records the paper-vs-measured comparison for each experiment. *)

open Cheri_workloads

module Abi = Cheri_core.Abi
module G = Cheri_core.Granularity

let line = String.make 78 '-'

let header title = Printf.printf "\n%s\n%s\n%s\n" line title line

(* --- Table 1: test suites ----------------------------------------------------------- *)

let table1 () =
  header "Table 1: test-suite results (pass / fail / skip / total)";
  let row label (c : Testsuite.counts) =
    Printf.printf "%-26s %5d %5d %5d %6d\n" label c.Testsuite.passed
      c.Testsuite.failed c.Testsuite.skipped (Testsuite.total_of c)
  in
  Printf.printf "%-26s %5s %5s %5s %6s\n" "" "Pass" "Fail" "Skip" "Total";
  let sys_m = Testsuite.run_system_suite ~abi:Abi.Mips64 in
  let sys_c = Testsuite.run_system_suite ~abi:Abi.Cheriabi in
  row "System MIPS" sys_m;
  row "System CheriABI" sys_c;
  let pg_m = Testsuite.run_pg_suite ~abi:Abi.Mips64 in
  let pg_c = Testsuite.run_pg_suite ~abi:Abi.Cheriabi in
  row "PostgreSQL MIPS" pg_m;
  row "PostgreSQL CheriABI" pg_c;
  let xx_m = Testsuite.run_xx_suite ~abi:Abi.Mips64 in
  let xx_c = Testsuite.run_xx_suite ~abi:Abi.Cheriabi in
  row "libc++-like MIPS" xx_m;
  row "libc++-like CheriABI" xx_c;
  Printf.printf "\nCheriABI-only failures, by cause:\n";
  List.iter
    (fun (suite, c) ->
      List.iter
        (fun (n, why) -> Printf.printf "  [%s] %s: %s\n" suite n why)
        c.Testsuite.failures)
    [ "system", sys_c; "postgres", pg_c; "libc++", xx_c ];
  Printf.printf
    "\nPaper: FreeBSD 3501/90/244 -> 3301/122/246; PostgreSQL 167/0/0 ->\n\
     150/16/1; libc++ 5338/29 -> 5333/34 (missing atomics runtime fn).\n\
     Shape: CheriABI adds failures from C idioms and one missing library\n\
     function, plus a skip for sbrk.\n"

(* --- Table 2: compatibility changes --------------------------------------------------- *)

let table2 () =
  header "Table 2: CheriABI compatibility idioms, by category";
  let cats = Compat.categories in
  let print_matrix title rows =
    Printf.printf "\n%s\n%-16s" title "";
    List.iter (fun c -> Printf.printf "%4s" (Compat.cat_name c)) cats;
    print_newline ();
    List.iter
      (fun (group, counts) ->
        Printf.printf "%-16s" group;
        List.iter (fun (_, n) -> Printf.printf "%4d" n) counts;
        print_newline ())
      rows
  in
  print_matrix "Analyzer over the legacy-C corpus:"
    (List.map (fun (g, files) -> g, Compat.analyze_group files) Compat.corpus);
  print_matrix
    "Semantic analyzer (typed-AST lint) over this repository's own CSmall \
     sources:"
    (List.map
       (fun (g, files) -> g, Compat.analyze_group_semantic files)
       (Compat.own_sources ()));
  Printf.printf "\nPaper's counts for the FreeBSD tree:\n%-16s" "";
  List.iter (fun c -> Printf.printf "%4s" (Compat.cat_name c)) cats;
  print_newline ();
  List.iter
    (fun (g, ns) ->
      Printf.printf "%-16s" g;
      List.iter (fun n -> Printf.printf "%4d" n) ns;
      print_newline ())
    Compat.paper_counts;
  Printf.printf "\nCategories: %s\n"
    (String.concat ", "
       (List.map
          (fun c ->
            Printf.sprintf "%s=%s" (Compat.cat_name c)
              (Compat.cat_description c))
          cats))

(* --- Table 3: BOdiagsuite -------------------------------------------------------------- *)

let table3 () =
  header "Table 3: BOdiagsuite detected errors (of 291 tests)";
  Printf.printf "%-10s %5s %5s %5s   (ok-variant sanity: pass/291)\n" "" "min"
    "med" "large";
  List.iter
    (fun abi ->
      let t = Bodiag.run_suite ~abi () in
      Printf.printf "%-10s %5d %5d %5d   ok=%d/%d\n%!" (Abi.to_string abi)
        t.Bodiag.detected_min t.Bodiag.detected_med t.Bodiag.detected_large
        t.Bodiag.ok_passed Bodiag.count;
      List.iter
        (fun (id, v, e) -> Printf.printf "    error: test %d/%s: %s\n" id v e)
        t.Bodiag.errors)
    [ Abi.Mips64; Abi.Cheriabi; Abi.Asan ];
  Printf.printf "\nPaper:\n";
  List.iter
    (fun (n, (a, b, c)) -> Printf.printf "%-10s %5d %5d %5d\n" n a b c)
    [ "mips64", (4, 8, 175); "cheriabi", (279, 289, 291);
      "asan", (276, 286, 286) ]

(* --- Figure 4: benchmark overheads ------------------------------------------------------ *)

let fig4 () =
  header
    "Figure 4: MiBench / SPEC / initdb overheads, CheriABI vs MIPS baseline";
  Printf.printf "%-22s %12s %8s %19s %8s\n" "benchmark" "base insns" "insns"
    "cycles [IQR]" "L2 miss";
  List.iter
    (fun (name, src) ->
      let s = Harness.compare_abis_spread ~runs:3 ~name src in
      Printf.printf "%-22s %12d %+7.2f%% %+7.2f%% [%+.2f %+.2f] %+7.2f%%\n%!"
        name s.Harness.s_base_insns s.Harness.s_insn_med s.Harness.s_cycle_med
        s.Harness.s_cycle_q1 s.Harness.s_cycle_q3 s.Harness.s_l2_med)
    Mibench.benchmarks;
  let base = Minipg.run ~abi:Abi.Mips64 () in
  let cheri = Minipg.run ~abi:Abi.Cheriabi () in
  let pct a b = 100.0 *. (float_of_int a -. float_of_int b) /. float_of_int b in
  Printf.printf "%-22s %12d %+8.2f%% %+8.2f%% %+8.2f%%\n" "initdb-dynamic"
    base.Harness.m_instructions
    (pct cheri.Harness.m_instructions base.Harness.m_instructions)
    (pct cheri.Harness.m_cycles base.Harness.m_cycles)
    (pct cheri.Harness.m_l2_misses base.Harness.m_l2_misses);
  Printf.printf
    "\nPaper: most benchmarks within compiler/cache noise; pointer-heavy\n\
     workloads see the largest cache-miss growth; initdb +6.8%% cycles.\n"

(* --- Figure 5: capability granularity ---------------------------------------------------- *)

let fig5 () =
  header "Figure 5: cumulative capabilities vs bounds size (openssl s_server)";
  let status, out, events = Openssl_sim.run_traced () in
  (match status with
   | Some (Cheri_kernel.Proc.Exited 0) -> ()
   | _ -> Printf.printf "warning: traced run did not exit cleanly (%s)\n" out);
  let regions =
    G.regions_of_trace ~stack_range:Openssl_sim.stack_range events
  in
  let es = G.entries regions events in
  let all, per_source = G.analyze regions events in
  let buckets = [ 16; 64; 256; 1024; 4096; 16384; 65536; 1 lsl 20; 1 lsl 24 ] in
  Printf.printf "%-12s" "size <=";
  List.iter
    (fun b ->
      let label =
        if b >= 1 lsl 20 then Printf.sprintf "%dM" (b lsr 20)
        else if b >= 1024 then Printf.sprintf "%dK" (b lsr 10)
        else string_of_int b
      in
      Printf.printf "%7s" label)
    buckets;
  print_newline ();
  let count_le (cdf : G.cdf) b =
    List.fold_left
      (fun acc (sz, n) -> if sz <= b then max acc n else acc)
      0 cdf.G.c_points
  in
  let row label (cdf : G.cdf) =
    Printf.printf "%-12s" label;
    List.iter (fun b -> Printf.printf "%7d" (count_le cdf b)) buckets;
    Printf.printf "  (max %d)\n" cdf.G.c_max_size
  in
  row "all" all;
  List.iter
    (fun c ->
      row (match c.G.c_source with Some s -> G.source_name s | None -> "?") c)
    per_source;
  let f = Cheri_core.Provenance.build events in
  Printf.printf "\nDerivation chains: %d roots (kernel grants), max depth %d,\n                 mean depth %.2f; histogram:" f.Cheri_core.Provenance.roots
    f.Cheri_core.Provenance.max_depth f.Cheri_core.Provenance.mean_depth;
  List.iter (fun (d, c) -> Printf.printf " d%d:%d" d c)
    (Cheri_core.Provenance.depth_histogram f);
  print_newline ();
  let s = G.summarize es in
  Printf.printf
    "\nTotal %d capabilities; %.1f%% grant <= 1KiB; largest %d bytes\n\
     (paper: ~90%% under 1KiB, none over 16MiB: %s here).\n"
    s.G.s_total s.G.s_pct_under_1k s.G.s_largest
    (if s.G.s_largest_under_16m then "holds" else "VIOLATED")

(* --- Syscall micro-benchmarks -------------------------------------------------------------- *)

let syscalls () =
  header "System-call micro-benchmarks (cycles per call)";
  Printf.printf "%-10s %10s %10s %9s\n" "syscall" "mips64" "cheriabi" "delta";
  List.iter
    (fun r ->
      Printf.printf "%-10s %10.1f %10.1f %+8.2f%%\n" r.Sysbench.r_name
        r.Sysbench.r_cycles_legacy r.Sysbench.r_cycles_cheri r.Sysbench.r_pct)
    (Sysbench.run_all ());
  Printf.printf
    "\nPaper: from +3.4%% (fork) to -9.8%% (select); select is faster under\n\
     CheriABI because the legacy kernel must construct capabilities from\n\
     four integer pointer arguments.\n"

(* --- initdb macro-benchmark + CLC ablation --------------------------------------------------- *)

let initdb () =
  header "PostgreSQL initdb macro-benchmark";
  let base = Minipg.run ~abi:Abi.Mips64 () in
  let cheri = Minipg.run ~abi:Abi.Cheriabi () in
  let asan = Minipg.run ~abi:Abi.Asan () in
  let pct a b = 100.0 *. (float_of_int a -. float_of_int b) /. float_of_int b in
  Printf.printf "%-18s %12s %12s %9s\n" "" "insns" "cycles" "vs mips64";
  let row name (m : Harness.measurement) =
    Printf.printf "%-18s %12d %12d %+8.2f%%\n" name m.Harness.m_instructions
      m.Harness.m_cycles
      (pct m.Harness.m_cycles base.Harness.m_cycles)
  in
  row "mips64" base;
  row "cheriabi" cheri;
  row "asan" asan;
  Printf.printf
    "\nASan/mips64 cycle ratio: %.2fx (paper: 3.29x more cycles).\n\
     Paper: CheriABI initdb +6.8%% cycles.\n"
    (float_of_int asan.Harness.m_cycles /. float_of_int base.Harness.m_cycles)

let ablation () =
  header "CLC immediate-range ablation (the paper's ISA extension, 5.2)";
  let base = Minipg.run ~abi:Abi.Mips64 () in
  let big = Minipg.run ~abi:Abi.Cheriabi () in
  let small =
    Minipg.run
      ~opts:
        { (Cheri_cc.Compile.default_options Abi.Cheriabi) with clc_large_imm = false }
      ~abi:Abi.Cheriabi ()
  in
  let pct a b = 100.0 *. (float_of_int a -. float_of_int b) /. float_of_int b in
  Printf.printf "%-24s %12s %10s %11s\n" "configuration" "cycles" "vs mips64"
    "code bytes";
  Printf.printf "%-24s %12d %10s %11d\n" "mips64 baseline" base.Harness.m_cycles
    "" base.Harness.m_code_bytes;
  Printf.printf "%-24s %12d %+9.2f%% %11d\n" "cheriabi, small CLC imm"
    small.Harness.m_cycles
    (pct small.Harness.m_cycles base.Harness.m_cycles)
    small.Harness.m_code_bytes;
  Printf.printf "%-24s %12d %+9.2f%% %11d\n" "cheriabi, large CLC imm"
    big.Harness.m_cycles
    (pct big.Harness.m_cycles base.Harness.m_cycles)
    big.Harness.m_code_bytes;
  Printf.printf
    "\nLarge-immediate CLC shrinks code by %.1f%% and cuts the overhead\n\
     (paper: initdb 11%% -> 6.8%%; >10%% code-size reduction).\n"
    (100.0
    *. float_of_int (small.Harness.m_code_bytes - big.Harness.m_code_bytes)
    /. float_of_int small.Harness.m_code_bytes)

(* --- Cache study ----------------------------------------------------------------------------------

   The paper's 6 proposes trace-based cache analysis as future work: here
   we sweep the shared L2 over the pointer-heavy patricia benchmark. *)

let cachestudy () =
  header "Cache study (6): CheriABI overhead vs L2 size, network-patricia";
  Printf.printf "%-8s %12s %14s %14s\n" "L2" "cycle ovh" "L2miss mips64"
    "L2miss cheri";
  List.iter
    (fun (kib, ovh, bm, cm) ->
      Printf.printf "%5dK %+10.2f%% %14d %14d\n" kib ovh bm cm)
    (Harness.cache_study ~name:"patricia"
       (Option.get (Mibench.find "network-patricia")));
  Printf.printf
    "\nLarger pointers enlarge the working set: the overhead is a cache\n\
     phenomenon and fades once the L2 holds both ABIs' footprints.\n"

(* --- Real-bug census ---------------------------------------------------------------------------- *)

let bugs () =
  header "Bug census (5.4): FreeBSD bugs found by CheriABI, re-created";
  Printf.printf "%-28s %-12s %-24s\n" "bug" "mips64" "cheriabi";
  List.iter
    (fun v ->
      Printf.printf "%-28s %-12s %-24s\n" v.Bugs.v_name v.Bugs.v_mips64
        v.Bugs.v_cheriabi)
    (Bugs.run_all ());
  Printf.printf "\nAll are detected under CheriABI; the legacy ABI runs on.\n"

(* --- Bechamel micro-benchmarks of the simulator itself -------------------------------------------- *)

let simulator () =
  header "Simulator micro-benchmarks (Bechamel)";
  let open Bechamel in
  let cap_test =
    Test.make ~name:"cap-derive"
      (Staged.stage (fun () ->
           let root = Cheri_cap.Cap.make_root ~base:0 ~top:(1 lsl 30) () in
           let c =
             Cheri_cap.Cap.set_bounds (Cheri_cap.Cap.set_addr root 4096)
               ~len:256
           in
           ignore (Cheri_cap.Cap.and_perms c Cheri_cap.Perms.data)))
  in
  let mem = Cheri_tagmem.Tagmem.create ~size:(1 lsl 16) in
  let tag_test =
    Test.make ~name:"tagmem-rw"
      (Staged.stage (fun () ->
           Cheri_tagmem.Tagmem.write_int mem 256 ~len:8 42;
           ignore (Cheri_tagmem.Tagmem.read_int mem 256 ~len:8)))
  in
  let compile_test =
    Test.make ~name:"compile-unit"
      (Staged.stage (fun () ->
           ignore
             (Cheri_cc.Compile.compile_source ~name:"bench"
                ~opts:(Cheri_cc.Compile.default_options Abi.Cheriabi)
                "int main(int argc, char **argv) { return argc; }")))
  in
  let exec_test =
    Test.make ~name:"sim-hello"
      (Staged.stage (fun () ->
           let k = Cheri_kernel.Kernel.boot ~mem_size:(8 * 1024 * 1024) () in
           Cheri_libc.Runtime.install k;
           Cheri_cc.Compile.install k ~path:"/bin/t" ~abi:Abi.Cheriabi
             "int main(int argc, char **argv) { return 0; }";
           ignore
             (Cheri_kernel.Kernel.run_program k ~path:"/bin/t" ~argv:[ "t" ])))
  in
  let run test =
    let results =
      Benchmark.all
        (Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ())
        Toolkit.Instance.[ monotonic_clock ]
        test
    in
    Hashtbl.iter
      (fun name result ->
        let stats =
          Analyze.one
            (Analyze.ols ~bootstrap:0 ~r_square:false
               ~predictors:[| Measure.run |])
            Toolkit.Instance.monotonic_clock result
        in
        match Analyze.OLS.estimates stats with
        | Some [ est ] -> Printf.printf "%-16s %12.1f ns/run\n" name est
        | _ -> Printf.printf "%-16s (no estimate)\n" name)
      results
  in
  List.iter run [ cap_test; tag_test; compile_test; exec_test ]

(* --- Measurement: engine, fleet and malloc ------------------------------------------------------------ *)

module Bb = Cheri_isa.Bbcache
module J = Cheri_core.Json
module Fleet = Cheri_fleet.Fleet

let opt_json = ref false
let opt_smoke = ref false
let opt_domains = ref 4

(* Top-level members of BENCH_simulator.json from every subcommand run in
   this process; the driver writes the file once, after the last one. *)
let json_members = ref []
let emit members = json_members := !json_members @ members

(* Every recorded figure carries three decimals. *)
let num x = J.Float (Float.round (x *. 1000.0) /. 1000.0)

let count n what = Printf.sprintf "%d %s%s" n what (if n = 1 then "" else "s")

(* [interleave ~reps ~insns legs] runs [reps] rounds of one pass of each
   leg in turn and returns every leg's passes in run order. Comparisons
   between legs are between near-equal quantities, so they must not be
   decided by host drift: interleaving shares any stall between the legs
   compared. A leg whose retired-instruction count ([insns]) changes
   between passes breaks the determinism contract and fails the run. *)
let interleave ~reps ~insns legs =
  let passes = List.map (fun _ -> ref []) legs in
  for _ = 1 to reps do
    List.iter2
      (fun (name, run) acc ->
        let p = run () in
        if List.exists (fun p0 -> insns p0 <> insns p) !acc then
          failwith
            (Printf.sprintf "%s: a repeated pass retired %d insns, not %d"
               name (insns p) (insns (List.hd !acc)));
        acc := p :: !acc)
      legs passes
  done;
  List.map (fun acc -> List.rev !acc) passes

(* --- Execution-engine throughput (docs/INTERP.md) ----------------------------------------------------

   Host wall-clock comparison of the interpreters over the Fig. 4 /
   Fig. 5 workload mix: the reference step engine and the chaining
   engine (decoded blocks entered through patched links and inline caches,
   never returning to dispatch inside hot loops), the latter with and
   without check elision.  Images are compiled outside the timed region,
   so the timer wraps pure simulation; every engine must retire exactly
   the same instruction count (bit-identical contract), which the run
   asserts. *)

type leg = {
  name : string;
  insns : int;                          (* retired by one pass *)
  secs : float list;                    (* host seconds of every pass *)
  ch : Bb.chain_stats;
  checked : int;                        (* check_cap probes run checked *)
  elided : int;                         (* ... and as check-free closures *)
}

let find_leg legs name = List.find (fun l -> l.name = name) legs

let mips insns secs = float_of_int insns /. secs /. 1e6

(* Best-of passes: the statistic every gate and recorded speedup uses. *)
let best_secs l = List.fold_left Float.min infinity l.secs
let sim_mips l = mips l.insns (best_secs l)

let median xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Chain length = blocks executed per dispatch-loop entry; IC hit rate =
   inline-cache key matches over all keyed (non-fall-through) lookups;
   elide rate = of the check_cap probes executed by compiled blocks, the
   share run as check-free closures (tier-1 facts plus guarded facts whose
   entry guard held). *)
let chain_len (ch : Bb.chain_stats) =
  ratio (ch.ch_entries + ch.ch_chained) ch.ch_entries

let ic_rate (ch : Bb.chain_stats) =
  ratio ch.ch_ic_hits (ch.ch_ic_hits + ch.ch_ic_misses + ch.ch_ic_mega)

let dtlb_rate (ch : Bb.chain_stats) =
  ratio ch.ch_dtlb_hits (ch.ch_dtlb_hits + ch.ch_dtlb_misses)

let elide_rate l = ratio l.elided (l.checked + l.elided)

let engine_bench () =
  let module K = Cheri_kernel in
  header "Execution-engine throughput: step vs chain (host wall-clock)";
  let workloads =
    if !opt_smoke then [ List.hd Mibench.benchmarks ] else Mibench.benchmarks
  in
  let images =
    List.concat_map
      (fun (name, src) ->
        List.map
          (fun abi ->
            ( Printf.sprintf "%s/%s" name (Abi.to_string abi),
              abi, [ "bench" ],
              Stdlib_src.build_image ~abi ~name src ))
          [ Abi.Mips64; Abi.Cheriabi ])
      workloads
    @
    (if !opt_smoke then []
     else
       [ ( "openssl-s_server/cheriabi", Abi.Cheriabi,
           [ "s_server"; "-port"; "4433" ],
           Stdlib_src.build_image ~abi:Abi.Cheriabi ~name:"s_server"
             ~extra_libs:[ "libssl", Openssl_sim.libssl_src ]
             Openssl_sim.server_src ) ])
  in
  let zero_ch =
    { Bb.ch_entries = 0; ch_chained = 0; ch_ic_hits = 0; ch_ic_misses = 0;
      ch_ic_mega = 0; ch_dtlb_hits = 0; ch_dtlb_misses = 0;
      ch_fused_insns = 0 }
  in
  let add_ch (a : Bb.chain_stats) (b : Bb.chain_stats) =
    { Bb.ch_entries = a.ch_entries + b.ch_entries;
      ch_chained = a.ch_chained + b.ch_chained;
      ch_ic_hits = a.ch_ic_hits + b.ch_ic_hits;
      ch_ic_misses = a.ch_ic_misses + b.ch_ic_misses;
      ch_ic_mega = a.ch_ic_mega + b.ch_ic_mega;
      ch_dtlb_hits = a.ch_dtlb_hits + b.ch_dtlb_hits;
      ch_dtlb_misses = a.ch_dtlb_misses + b.ch_dtlb_misses;
      ch_fused_insns = 0 }
  in
  (* One full pass over the mix. The fact cache is deliberately NOT cleared
     here: within a leg, passes after the first hit the image-keyed cache, so
     best-of-N measures the amortized (steady-state) cost of elision rather
     than the one-off analysis of a cold cache. The chain stats and probe
     counts are deterministic across passes of one leg, so a leg keeps its
     last pass's. *)
  let run_pass (name, elide, engine) () =
    let l, secs =
      List.fold_left
        (fun (l, secs) (label, abi, argv, image) ->
          let k = K.Kernel.boot () in
          k.K.Kstate.config.K.Kstate.engine <- engine;
          if elide then
            k.K.Kstate.config.K.Kstate.fact_provider <-
              Some (Cheri_analysis.Absint.provider ());
          Cheri_libc.Runtime.install k;
          K.Vfs.add_exe k.K.Kstate.vfs "/bin/bench" ~abi image;
          let t0 = Unix.gettimeofday () in
          let status, _out, p = K.Kernel.run_program k ~path:"/bin/bench" ~argv in
          let dt = Unix.gettimeofday () -. t0 in
          if status = None then
            failwith (Printf.sprintf "engine bench: %s ran away" label);
          let bb = k.K.Kstate.bb in
          ( { l with
              insns = l.insns + p.K.Proc.ctx.Cheri_isa.Cpu.instret;
              ch = add_ch l.ch (Bb.chain_stats bb);
              checked = l.checked + bb.Bb.checked_probes;
              elided = l.elided + bb.Bb.elided_probes },
            secs +. dt ))
        ({ name; insns = 0; secs = []; ch = zero_ch; checked = 0; elided = 0 }, 0.0)
        images
    in
    { l with secs = [ secs ] }
  in
  (* One analysis-stats and fact-cache epoch per call: the non-elide legs
     install no provider, so the analysis counters after the last call
     describe its elide leg alone. *)
  let sample ~reps legs =
    Cheri_analysis.Absint.reset_stats ();
    Cheri_analysis.Absint.clear_fact_cache ();
    List.map
      (fun passes ->
        { (List.nth passes (reps - 1)) with
          secs = List.concat_map (fun p -> p.secs) passes })
      (interleave ~reps ~insns:(fun l -> l.insns)
         (List.map (fun ((name, _, _) as leg) -> name, run_pass leg) legs))
  in
  (* Smoke legs are ~40ms a pass, where a single descheduling event is a
     multi-percent outlier; best-of-7 there keeps the smoke gates from
     being decided by one noisy pass while staying under a second per
     leg. The full mix runs seconds per pass and keeps best-of-3. *)
  let reps = if !opt_smoke then 7 else 3 in
  (* Sequenced with explicit lets: the analysis-stats epoch of the chain
     pair is read below, so it must run last. *)
  let step = List.hd (sample ~reps:1 [ "step", false, Cheri_isa.Cpu.Step ]) in
  let chain_legs =
    sample ~reps
      [ "chain", false, Cheri_isa.Cpu.Chain; "chain+elide", true, Cheri_isa.Cpu.Chain ]
  in
  let legs = step :: chain_legs in
  let chain = find_leg legs "chain" and elide = find_leg legs "chain+elide" in
  (* After the chain pair the stats describe the chain+elide leg across all
     of its passes: the first pass misses once per exec and runs the lazy
     superblock fixpoints; later passes hit the image-keyed cache and
     analyze nothing. *)
  let st = Cheri_analysis.Absint.stats in
  Printf.printf
    "fact cache (elide leg): %d hit%s, %d miss%s; superblocks analyzed: %d \
     eager, %d lazy\n"
    st.cs_hits (if st.cs_hits = 1 then "" else "s")
    st.cs_misses (if st.cs_misses = 1 then "" else "es")
    st.cs_eager_sb st.cs_lazy_sb;
  Printf.printf
    "data-TLB (chain leg, 2x2 set-assoc): %d hits, %d misses (%.1f%% hit)\n"
    chain.ch.ch_dtlb_hits chain.ch.ch_dtlb_misses (100.0 *. dtlb_rate chain.ch);
  Printf.printf "%-18s %14s %10s %10s %10s %8s %8s\n" "engine" "sim insns"
    "host s" "sim-MIPS/s" "chain-len" "IC-hit" "elided";
  List.iter
    (fun l ->
      let pct x = Printf.sprintf "%.1f%%" (100.0 *. x) in
      let len, ic =
        if l.ch.ch_entries = 0 then "-", "-"
        else Printf.sprintf "%.2f" (chain_len l.ch), pct (ic_rate l.ch)
      in
      Printf.printf "%-18s %14d %10.3f %10.2f %10s %8s %8s\n" l.name l.insns
        (best_secs l) (sim_mips l) len ic
        (if l.checked + l.elided = 0 then "-" else pct (elide_rate l)))
    legs;
  List.iter
    (fun l ->
      if l.insns <> step.insns then
        failwith
          (Printf.sprintf "engine parity violated: step retired %d insns, %s %d"
             step.insns l.name l.insns);
      Printf.printf "%s/step speedup: %.2fx (identical %d retired insns)\n"
        l.name (sim_mips l /. sim_mips step) step.insns)
    chain_legs;
  (* Regression gates (wired into @bench-smoke). Two structural checks on
     the image-keyed fact cache and lazy per-superblock analysis are exact:
     the elide leg must have hit the fact cache on its warm passes, and
     must not have fallen back to eager whole-image analysis. *)
  if !opt_smoke then begin
    if st.cs_hits = 0 then
      failwith "bench-smoke: elide leg never hit the fact cache on warm passes";
    if st.cs_eager_sb > 0 then
      failwith
        (Printf.sprintf
           "bench-smoke: elide leg ran %d eager superblock fixpoints \
            (expected lazy analysis only)" st.cs_eager_sb);
    (* Chain gates: an inline-cache hit count of zero on this mix means
       the links or inline caches stopped carrying the hot loops (every
       workload has monomorphic hot back edges). *)
    if chain.ch.ch_ic_hits = 0 then
      failwith "bench-smoke: chain leg never hit an inline cache";
    if chain.ch.ch_chained = 0 then
      failwith "bench-smoke: chain leg never chained a block";
    (* Elision on top of chaining must not cost throughput. The regression
       class this hunts — analysis work creeping back onto the exec path,
       concretely the guarded-fact prescan re-running each superblock
       fixpoint a second time — is gated EXACTLY via [cs_lazy_gsb]: the
       combined lazy resolver keeps it at 0. That original regression cost
       0.16% of throughput, an order of magnitude below the jitter of these
       ~40ms legs, so the wall-clock floor below is a backstop against
       catastrophic regressions only. *)
    if st.cs_lazy_gsb > 0 then
      failwith
        (Printf.sprintf
           "bench-smoke: chain+elide leg re-ran %d guarded-tier fixpoints \
            (the combined resolver must serve both tiers from one scan)"
           st.cs_lazy_gsb);
    if sim_mips elide < sim_mips chain *. 0.85 then
      failwith
        (Printf.sprintf
           "bench-smoke: chain+elide regressed below chain (%.2f < 0.85 x \
            %.2f sim-MIPS)" (sim_mips elide) (sim_mips chain));
    (* The widened data-side TLB must actually serve the chain legs. *)
    if chain.ch.ch_dtlb_hits = 0 then
      failwith "bench-smoke: chain leg never hit the data-side TLB";
    (* Probe gates: the elide leg must actually execute check-free
       closures; the non-elide leg must never see one. *)
    if elide.elided = 0 then
      failwith "bench-smoke: chain+elide leg executed no elided probes";
    if chain.elided <> 0 then
      failwith "bench-smoke: non-elide leg executed elided probes"
  end;
  let an_funcs, an_iters, an_checks, an_proved =
    Cheri_analysis.Absint.ipa_totals ()
  in
  let c = chain.ch in
  emit
    [ "benchmark", J.String "mibench+spec x {mips64,cheriabi} + openssl s_server";
      ( "engines",
        J.List
          (List.map
             (fun l ->
               let pass_mips = List.map (mips l.insns) l.secs in
               J.Obj
                 [ "engine", J.String l.name; "instructions", J.Int l.insns;
                   "host_seconds", num (best_secs l);
                   "sim_mips", num (sim_mips l);
                   "pass_sim_mips", J.List (List.map num pass_mips);
                   "median_sim_mips", num (median pass_mips);
                   "chain_length", num (chain_len l.ch);
                   "ic_hit_rate", num (ic_rate l.ch);
                   "elide_rate", num (elide_rate l) ])
             legs) );
      "speedup_chain_over_step", num (sim_mips chain /. sim_mips step);
      "speedup_chain_elide_over_step", num (sim_mips elide /. sim_mips step);
      ( "chain",
        J.Obj
          [ "entries", J.Int c.ch_entries; "chained", J.Int c.ch_chained;
            "avg_chain_length", num (chain_len c); "ic_hits", J.Int c.ch_ic_hits;
            "ic_misses", J.Int c.ch_ic_misses; "ic_megamorphic", J.Int c.ch_ic_mega;
            "ic_hit_rate", num (ic_rate c); "dtlb_hits", J.Int c.ch_dtlb_hits;
            "dtlb_misses", J.Int c.ch_dtlb_misses; "dtlb_hit_rate", num (dtlb_rate c) ] );
      ( "fact_cache",
        J.Obj
          [ "hits", J.Int st.cs_hits; "misses", J.Int st.cs_misses;
            "superblocks_eager", J.Int st.cs_eager_sb;
            "superblocks_lazy", J.Int st.cs_lazy_sb;
            "guarded_prescans", J.Int st.cs_lazy_gsb ] );
      ( "analysis",
        J.Obj
          [ "functions_summarized", J.Int an_funcs;
            "fixpoint_iterations", J.Int an_iters;
            "checks_provable", J.Int an_proved; "checks_total", J.Int an_checks ] );
      ( "check_probes",
        J.Obj
          [ ( "chain_elide",
              J.Obj
                [ "checked", J.Int elide.checked; "elided", J.Int elide.elided;
                  "elide_rate", num (elide_rate elide) ] ) ] ) ]

(* --- Fleet: multicore machine sharding (docs/FLEET.md) ----------------------------- *)

(* The 1-domain and [domains]-domain runs of one machine set, interleaved,
   keeping each side's best-throughput report. Simulated results are
   identical across passes by the determinism contract, so "best" only
   selects a wall clock. *)
let fleet_pair ~domains run =
  Cheri_analysis.Absint.reset_stats ();
  Cheri_analysis.Absint.clear_fact_cache ();
  let reps = if !opt_smoke then 3 else 1 in
  let best rs =
    List.fold_left
      (fun a b -> if b.Fleet.f_mips > a.Fleet.f_mips then b else a)
      (List.hd rs) rs
  in
  match
    interleave ~reps ~insns:(fun r -> r.Fleet.f_insns)
      [ "1 domain", (fun () -> run 1);
        count domains "domain", (fun () -> run domains) ]
  with
  | [ single; sharded ] -> best single, best sharded
  | _ -> assert false

(* Per-machine checks of the sharded run: a clean exit, the workload's
   own success line at the end of its console, and the determinism
   contract — a snapshot bit-identical to the single-domain run's. The
   snapshot embeds status and console, so the single-domain run passes
   the first two checks whenever the sharded run does. *)
let check_machines ~tag ~suffix ~domains (single : Fleet.report)
    (sharded : Fleet.report) =
  Array.iteri
    (fun i (m : Fleet.machine_result) ->
      (match m.mr_status with
       | Some (Cheri_kernel.Proc.Exited 0) -> ()
       | s ->
         failwith
           (Printf.sprintf "%s: %s finished %s" tag m.mr_label
              (Fleet.status_str s)));
      if not (String.ends_with ~suffix m.mr_output) then
        failwith
          (Printf.sprintf "%s: %s did not print %S" tag m.mr_label suffix);
      if not (String.equal single.f_results.(i).mr_snapshot m.mr_snapshot) then
        failwith
          (Printf.sprintf "%s: %s diverged between 1 and %d domains" tag
             m.mr_label domains))
    sharded.f_results

(* Scaling gate, host-parallelism-aware: a 2.5x floor for 4 domains
   assumes >= 4 host cores (0.625x per domain of usable parallelism). On
   narrower hosts wall-clock parallelism is bounded by the core count, so
   the same per-core floor is applied to min(domains, cores) — on a 1-core
   host that degenerates to "N domains must stay within 0.625x of 1
   domain", guarding against multi-domain overhead regressions while
   demanding nothing the hardware cannot give. docs/FLEET.md records this
   policy. *)
let scaling_gate ~tag ~domains (single : Fleet.report) (sharded : Fleet.report) =
  let usable = min domains (Domain.recommended_domain_count ()) in
  let floor_x = 0.625 *. float_of_int usable in
  if sharded.f_mips < floor_x *. single.f_mips then
    failwith
      (Printf.sprintf
         "%s: %d-domain aggregate %.2f sim-MIPS under the %.2fx floor over \
          single-domain %.2f (usable parallelism %d)"
         tag domains sharded.f_mips floor_x single.f_mips usable)

let fleet_bench () =
  header "Fleet: whole-machine sharding across OCaml domains (TLS traffic)";
  let domains = !opt_domains in
  let cores = Domain.recommended_domain_count () in
  (* The smoke mix is sized for CI on one core; the full mix is the
     EXPERIMENTS.md scaling configuration. *)
  let machines, rounds = if !opt_smoke then 4, 30 else 8, 150 in
  Printf.printf
    "mix: %d s_server machines in 3 service classes (base rounds %d), %s on \
     %s\n%!"
    machines rounds (count domains "domain") (count cores "host core");
  let specs = Fleet.traffic_mix ~machines ~rounds () in
  let single, fleet = fleet_pair ~domains (fun d -> Fleet.run ~domains:d specs) in
  check_machines ~tag:"fleet" ~suffix:"fleet ok" ~domains single fleet;
  Printf.printf "%-20s %6s %6s %12s %9s %8s\n" "machine" "domain" "stolen"
    "sim insns" "requests" "host s";
  Array.iter
    (fun (m : Fleet.machine_result) ->
      Printf.printf "%-20s %6d %6s %12d %9d %8.3f\n" m.mr_label m.mr_domain
        (if m.mr_stolen then "yes" else "no")
        m.mr_insns m.mr_requests m.mr_host_seconds)
    fleet.f_results;
  let speedup = fleet.f_mips /. single.f_mips in
  Printf.printf
    "aggregate: 1 domain %.2f sim-MIPS; %d domains (%d workers) %.2f \
     sim-MIPS (%.2fx), %d steals\n"
    single.f_mips domains fleet.f_workers fleet.f_mips speedup fleet.f_steals;
  Printf.printf "utilization: %s\n"
    (String.concat " "
       (Array.to_list
          (Array.mapi
             (fun d u -> Printf.sprintf "d%d=%.0f%%" d (100.0 *. u))
             fleet.f_util)));
  Printf.printf
    "request latency (sim cycles over %d requests): p50=%d p95=%d p99=%d\n"
    fleet.f_requests fleet.f_p50 fleet.f_p95 fleet.f_p99;
  if !opt_smoke then begin
    if not (fleet.f_p50 <= fleet.f_p95 && fleet.f_p95 <= fleet.f_p99) then
      failwith
        (Printf.sprintf
           "fleet-smoke: latency percentiles not monotone (p50=%d p95=%d \
            p99=%d)" fleet.f_p50 fleet.f_p95 fleet.f_p99);
    if fleet.f_requests = 0 then
      failwith "fleet-smoke: traffic generator completed no requests";
    if fleet.f_insns <> single.f_insns then
      failwith
        (Printf.sprintf "fleet-smoke: instruction totals diverged (%d vs %d)"
           single.f_insns fleet.f_insns);
    scaling_gate ~tag:"fleet-smoke" ~domains single fleet
  end;
  emit
    [ ( "fleet",
        J.Obj
          [ "domains", J.Int domains; "workers", J.Int fleet.f_workers;
            "host_cores", J.Int cores; "machines", J.Int machines;
            "requests", J.Int fleet.f_requests;
            "single_domain_mips", num single.f_mips;
            "aggregate_mips", num fleet.f_mips; "speedup", num speedup;
            "steals", J.Int fleet.f_steals;
            "utilization", J.List (List.map num (Array.to_list fleet.f_util));
            ( "latency_cycles",
              J.Obj
                [ "p50", J.Int fleet.f_p50; "p95", J.Int fleet.f_p95;
                  "p99", J.Int fleet.f_p99 ] );
            ( "machines_detail",
              J.List
                (List.map
                   (fun (m : Fleet.machine_result) ->
                     J.Obj
                       [ "machine", J.String m.mr_label;
                         "domain", J.Int m.mr_domain;
                         "stolen", J.Bool m.mr_stolen;
                         "instructions", J.Int m.mr_insns;
                         "requests", J.Int m.mr_requests;
                         "host_seconds", num m.mr_host_seconds ])
                   (Array.to_list fleet.f_results)) ) ] ) ]

(* --- Malloc contention: the sharded allocator under cross-shard frees (docs/ALLOC.md) ---

   Two legs. The directed leg drives the allocator API through a real
   fork so the per-shard counters (remote frees message-passed between
   shards, queue drains, sweeps at ownership change) are observable at
   shard granularity — a C program's heap is evicted into machine totals
   at exit, so shard-level numbers can only be sampled live. The fleet
   leg then runs the contention workload as whole machines across
   domains and holds the allocator to the same determinism contract as
   everything else: bit-identical per-machine snapshots (which embed the
   alloc= counter line) whatever the domain count — an unsynchronized
   arena access anywhere would diverge exactly here. *)

let malloc_contention () =
  let module MI = Cheri_libc.Malloc_impl in
  header "Malloc contention: sharded allocator, remote-free queues, sweeps";
  (* --- Directed leg: per-shard choreography --------------------------- *)
  let k = Cheri_kernel.Kernel.boot () in
  Cheri_libc.Runtime.install k;
  Stdlib_src.install k ~path:"/bin/idle" ~abi:Abi.Cheriabi
    "int main(int argc, char **argv) { return 0; }";
  let p =
    Cheri_kernel.Kernel.spawn k ~path:"/bin/idle" ~argv:[ "idle" ] ()
  in
  let nobj = 96 in
  let ptrs =
    Array.init nobj (fun i -> fst (MI.malloc k p (16 + ((i * 53) mod 2600))))
  in
  let child =
    match Cheri_kernel.Sys_impl.sys_fork k p [] with
    | Cheri_kernel.Sys_impl.RInt pid ->
      Option.get (Cheri_kernel.Kstate.find_proc k pid)
    | _ -> failwith "malloc bench: fork failed"
  in
  (* The child frees every other inherited object before its first
     allocation: its affinity shard does not own those chunks, so each
     free is message-passed to the owner's remote queue. *)
  Array.iteri (fun i a -> if i mod 2 = 0 then ignore (MI.free k child a)) ptrs;
  (* Churn over a small set of repeating classes: the first malloc
     drains and adopts (ownership-change sweeps), later rounds recycle
     dirty local slots (reuse sweeps). *)
  for i = 0 to 63 do
    let a, _ = MI.malloc k child (16 + ((i mod 8) * 37)) in
    ignore (MI.free k child a)
  done;
  ignore (MI.malloc k child 64);
  let shards = MI.shard_stats k child in
  Printf.printf "%-6s %8s %7s %8s %8s %7s %7s %7s %6s %8s\n" "shard"
    "mallocs" "frees" "rem-enq" "rem-drn" "drains" "own-sw" "reuse"
    "adopt" "pending";
  Array.iter
    (fun (s : MI.shard_stats) ->
      Printf.printf "%-6d %8d %7d %8d %8d %7d %7d %7d %6d %8d\n" s.MI.ss_id
        s.MI.ss_mallocs s.MI.ss_frees s.MI.ss_remote_enq
        s.MI.ss_remote_drained s.MI.ss_drains s.MI.ss_owner_sweeps
        s.MI.ss_reuse_sweeps s.MI.ss_adoptions s.MI.ss_pending)
    shards;
  let ssum f = Array.fold_left (fun acc s -> acc + f s) 0 shards in
  let enq = ssum (fun s -> s.MI.ss_remote_enq) in
  let drn = ssum (fun s -> s.MI.ss_remote_drained) in
  let pend = ssum (fun s -> s.MI.ss_pending) in
  let osw = ssum (fun s -> s.MI.ss_owner_sweeps) in
  let rsw = ssum (fun s -> s.MI.ss_reuse_sweeps) in
  Printf.printf
    "directed: %d remote frees enqueued, %d drained (%d pending), %d \
     ownership-change sweeps, %d reuse sweeps\n"
    enq drn pend osw rsw;
  if !opt_smoke then begin
    if enq = 0 then
      failwith "malloc-smoke: directed leg produced no remote frees";
    if enq <> drn || pend <> 0 then
      failwith
        (Printf.sprintf
           "malloc-smoke: remote queues not drained at quiesce (enq=%d \
            drained=%d pending=%d)" enq drn pend);
    if osw = 0 then
      failwith "malloc-smoke: no sweeps at ownership change";
    if rsw = 0 then
      failwith "malloc-smoke: no reuse sweeps of dirty local slots"
  end;
  (* --- Fleet leg: determinism + throughput ---------------------------- *)
  let domains = !opt_domains in
  let machines, src =
    if !opt_smoke then
      2, Malloc_bench.contention_src ~objs:24 ~generations:4 ~churn:12 ()
    else 4, Malloc_bench.contention_src ()
  in
  let gens = if !opt_smoke then 4 else Malloc_bench.default_generations in
  Printf.printf "fleet leg: %d contention machines, %s on %s\n%!" machines
    (count domains "domain")
    (count (Domain.recommended_domain_count ()) "host core");
  let image = Stdlib_src.build_image ~abi:Abi.Cheriabi ~name:"malloc_mc" src in
  let specs =
    List.init machines (fun i ->
        { Fleet.ms_label = Printf.sprintf "malloc_mc%d" i;
          ms_abi = Abi.Cheriabi; ms_image = image; ms_path = "/bin/malloc_mc";
          ms_argv = [ "malloc_mc" ]; ms_max_steps = 200_000_000;
          ms_marker = '#' })
  in
  let single, fleet =
    fleet_pair ~domains (fun d -> Fleet.run ~domains:d ~oversubscribe:true specs)
  in
  check_machines ~tag:"malloc fleet" ~suffix:" malloc ok" ~domains single fleet;
  Printf.printf "%-14s %9s %9s %9s %9s %8s %8s %8s\n" "machine" "mallocs"
    "frees" "rem-enq" "rem-drn" "own-sw" "reuse" "adopt";
  Array.iter
    (fun (m : Fleet.machine_result) ->
      if m.mr_requests <> Malloc_bench.expected_markers ~generations:gens ()
      then
        failwith
          (Printf.sprintf "malloc fleet: %s reaped %d children, expected %d"
             m.mr_label m.mr_requests gens);
      (* Quiesce gates per machine: remote queues fully drained. *)
      let ma n = List.assoc n m.mr_alloc in
      if ma "remote_enq" = 0 then
        failwith
          (Printf.sprintf "malloc fleet: %s saw no remote frees" m.mr_label);
      if ma "remote_enq" <> ma "remote_drained" || ma "pending_remote" <> 0
      then
        failwith
          (Printf.sprintf
             "malloc fleet: %s queues not drained (enq=%d drained=%d \
              pending=%d)" m.mr_label (ma "remote_enq")
             (ma "remote_drained") (ma "pending_remote"));
      Printf.printf "%-14s %9d %9d %9d %9d %8d %8d %8d\n" m.mr_label
        (ma "mallocs") (ma "frees") (ma "remote_enq") (ma "remote_drained")
        (ma "owner_sweeps") (ma "reuse_sweeps") (ma "adoptions"))
    fleet.f_results;
  let speedup = fleet.f_mips /. single.f_mips in
  Printf.printf
    "aggregate: 1 domain %.2f sim-MIPS; %d domains %.2f sim-MIPS (%.2fx)\n"
    single.f_mips domains fleet.f_mips speedup;
  (* Sharding the contention machines must not cost throughput the
     hardware can deliver. *)
  if !opt_smoke then scaling_gate ~tag:"malloc-smoke" ~domains single fleet;
  let asum name =
    Array.fold_left
      (fun acc (m : Fleet.machine_result) -> acc + List.assoc name m.mr_alloc)
      0 fleet.f_results
  in
  let totals =
    [ "mallocs"; "frees"; "remote_enq"; "remote_drained"; "drains";
      "owner_sweeps"; "reuse_sweeps"; "adoptions"; "tags_cleared";
      "pending_remote" ]
  in
  emit
    [ ( "malloc_contention",
        J.Obj
          [ "machines", J.Int machines; "domains", J.Int domains;
            "workers", J.Int fleet.f_workers; "requests", J.Int fleet.f_requests;
            "single_domain_mips", num single.f_mips;
            "aggregate_mips", num fleet.f_mips; "speedup", num speedup;
            "alloc_totals", J.Obj (List.map (fun n -> n, J.Int (asum n)) totals);
            ( "directed_shards",
              J.List
                (List.map
                   (fun (s : MI.shard_stats) ->
                     J.Obj
                       [ "shard", J.Int s.ss_id; "mallocs", J.Int s.ss_mallocs;
                         "frees", J.Int s.ss_frees;
                         "remote_enq", J.Int s.ss_remote_enq;
                         "remote_drained", J.Int s.ss_remote_drained;
                         "drains", J.Int s.ss_drains;
                         "owner_sweeps", J.Int s.ss_owner_sweeps;
                         "reuse_sweeps", J.Int s.ss_reuse_sweeps;
                         "adoptions", J.Int s.ss_adoptions ])
                   (Array.to_list shards)) ) ] ) ]

(* --- Driver ------------------------------------------------------------------------------------------ *)

let experiments =
  [ "table1", table1; "table2", table2; "table3", table3; "fig4", fig4;
    "fig5", fig5; "syscalls", syscalls; "initdb", initdb;
    "ablation", ablation; "cachestudy", cachestudy; "bugs", bugs;
    "simulator", simulator; "engine", engine_bench; "fleet", fleet_bench;
    "malloc", malloc_contention ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let flags, args = List.partition (String.starts_with ~prefix:"--") args in
  List.iter
    (function
      | "--json" -> opt_json := true
      | "--smoke" -> opt_smoke := true
      | a ->
        (match Scanf.sscanf_opt a "--domains=%u%!" Fun.id with
         | Some n when n >= 1 -> opt_domains := n
         | _ -> failwith (Printf.sprintf "bad flag %S" a)))
    flags;
  let selected =
    match args with
    | [] when flags <> [] -> [ "engine" ]
    | [] | [ "all" ] -> List.map fst experiments
    | picks -> picks
  in
  List.iter
    (fun name ->
      if not (List.mem_assoc name experiments) then begin
        Printf.eprintf "unknown experiment %S; available: %s\n" name
          (String.concat " " (List.map fst experiments));
        exit 2
      end)
    selected;
  List.iter
    (fun name ->
      let t0 = Unix.gettimeofday () in
      List.assoc name experiments ();
      Printf.printf "[%s: %.1fs]\n%!" name (Unix.gettimeofday () -. t0))
    selected;
  match !json_members with
  | _ :: _ when !opt_json ->
    let oc = open_out "BENCH_simulator.json" in
    output_string oc (J.to_string (J.Obj !json_members));
    close_out oc;
    print_endline "wrote BENCH_simulator.json"
  | _ -> ()
