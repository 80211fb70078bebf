(* cheri_run: compile a CSmall source file and run it on the simulated
   CheriABI system.

     dune exec bin/cheri_run.exe -- prog.c
     dune exec bin/cheri_run.exe -- --abi mips64 --stats prog.c
     dune exec bin/cheri_run.exe -- --trace --abi cheriabi prog.c
     dune exec bin/cheri_run.exe -- --dump-asm prog.c *)

open Cmdliner

module Abi = Cheri_core.Abi
module Kernel = Cheri_kernel.Kernel
module Proc = Cheri_kernel.Proc
module Signo = Cheri_kernel.Signo
module Cpu = Cheri_isa.Cpu
module Cache = Cheri_tagmem.Cache
module Trace = Cheri_isa.Trace
module G = Cheri_core.Granularity

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let abi_conv =
  let parse = function
    | "mips64" -> Ok Abi.Mips64
    | "cheriabi" -> Ok Abi.Cheriabi
    | "asan" -> Ok Abi.Asan
    | s -> Error (`Msg (Printf.sprintf "unknown ABI %S" s))
  in
  Arg.conv (parse, fun ppf a -> Fmt.string ppf (Abi.to_string a))

let engine_conv =
  let parse = function
    | "step" -> Ok Cpu.Step
    | "chain" -> Ok Cpu.Chain
    | s -> Error (`Msg (Printf.sprintf "unknown engine %S" s))
  in
  Arg.conv
    ( parse,
      fun ppf e ->
        Fmt.string ppf
          (match e with
           | Cpu.Step -> "step"
           | Cpu.Chain -> "chain") )

(* Lines the libc prototypes add in front of the user's source: compile
   errors are re-biased so they name lines of [file] itself. *)
let externs_lines =
  String.fold_left
    (fun n c -> if c = '\n' then n + 1 else n)
    0 Cheri_workloads.Stdlib_src.libc_externs

(* --fleet N: run N instances of the compiled program as whole simulated
   machines sharded across OCaml domains (docs/FLEET.md) and print the
   aggregate report. Request-latency percentiles are measured over '#'
   markers the program prints per completed unit of work (as the TLS
   traffic workload does); programs that print none simply report no
   requests. *)
let run_fleet ~abi ~engine ~elide ~no_libc ~opts ~file ~args ~fleet_n ~domains
    src =
  let module Fleet = Cheri_fleet.Fleet in
  let image =
    if no_libc then Cheri_cc.Compile.build_image ~opts ~abi ~name:"prog" src
    else Cheri_workloads.Stdlib_src.build_image ~opts ~abi ~name:"prog" src
  in
  let base = Filename.basename file in
  let specs =
    List.init fleet_n (fun i ->
        { Fleet.ms_label = Printf.sprintf "%s/%d" base i;
          ms_abi = abi;
          ms_image = image;
          ms_path = "/bin/prog";
          ms_argv = base :: args;
          ms_max_steps = 400_000_000;
          ms_marker = '#' })
  in
  let r = Fleet.run ~engine ~elide ~domains specs in
  Printf.printf "%-24s %6s %6s %12s %9s %8s  %s\n" "machine" "domain" "stolen"
    "sim insns" "requests" "host s" "status";
  Array.iter
    (fun (m : Fleet.machine_result) ->
      Printf.printf "%-24s %6d %6s %12d %9d %8.3f  %s\n" m.Fleet.mr_label
        m.Fleet.mr_domain
        (if m.Fleet.mr_stolen then "yes" else "no")
        m.Fleet.mr_insns m.Fleet.mr_requests m.Fleet.mr_host_seconds
        (Fleet.status_str m.Fleet.mr_status))
    r.Fleet.f_results;
  Printf.printf
    "aggregate: %.2f sim-MIPS over %d machines, %d domains (%d workers), %d \
     steals\n"
    r.Fleet.f_mips fleet_n r.Fleet.f_domains r.Fleet.f_workers
    r.Fleet.f_steals;
  if r.Fleet.f_requests > 0 then
    Printf.printf
      "request latency (sim cycles over %d requests): p50=%d p95=%d p99=%d\n"
      r.Fleet.f_requests r.Fleet.f_p50 r.Fleet.f_p95 r.Fleet.f_p99;
  if
    Array.for_all
      (fun (m : Fleet.machine_result) ->
        m.Fleet.mr_status = Some (Proc.Exited 0))
      r.Fleet.f_results
  then 0
  else 1

let run file abi engine args dump_asm stats trace no_libc clc_small lint
    verify elide astats fleet_n domains =
  let src = read_file file in
  let opts =
    { (Cheri_cc.Compile.default_options abi) with clc_large_imm = not clc_small }
  in
  if fleet_n > 0 then begin
    match
      run_fleet ~abi ~engine ~elide ~no_libc ~opts ~file ~args ~fleet_n
        ~domains src
    with
    | code -> code
    | exception Cheri_cc.Ast.Compile_error msg ->
      let bias = if no_libc then 0 else externs_lines in
      Printf.eprintf "%s: %s\n" file (Cheri_analysis.Lint.shift_line ~bias msg);
      2
  end
  else if verify then begin
    (* Static whole-image verification: compile and link exactly as execve
       would, then run the capability abstract interpreter. *)
    match
      let image =
        if no_libc then
          Cheri_cc.Compile.build_image ~opts ~abi ~name:"prog" src
        else Cheri_workloads.Stdlib_src.build_image ~opts ~abi ~name:"prog" src
      in
      Cheri_rtld.Rtld.link ~abi image
    with
    | exception Cheri_cc.Ast.Compile_error msg ->
      let bias = if no_libc then 0 else externs_lines in
      Printf.eprintf "%s: %s\n" file (Cheri_analysis.Lint.shift_line ~bias msg);
      2
    | exception Cheri_rtld.Rtld.Link_error msg ->
      Printf.eprintf "%s: link error: %s\n" file msg;
      2
    | link ->
      let module Perms = Cheri_cap.Perms in
      let module Rtld = Cheri_rtld.Rtld in
      let module Absint = Cheri_analysis.Absint in
      let entries, got = Rtld.linkage_view link in
      let r =
        Absint.verify
          ~ddc:(Cheri_kernel.Kstate.initial_ddc abi)
          ~pcc_may:(Perms.diff Perms.all Perms.system_regs)
          ~entries ~got link.Rtld.lk_code
      in
      if r.Absint.r_diags = [] then begin
        Printf.printf
          "%s: no verifier diagnostics (%d checks, %d elidable, %d guarded; \
           interprocedural %d/%d in %d iters)\n"
          file r.Absint.r_sites r.Absint.r_elided r.Absint.r_guarded
          r.Absint.r_flow_elided r.Absint.r_flow_sites r.Absint.r_iters;
        0
      end
      else begin
        List.iter
          (fun d -> Printf.printf "%s: %s\n" file (Absint.pp_diag d))
          r.Absint.r_diags;
        Printf.printf
          "%s: %d diagnostic%s (%d checks, %d elidable, %d guarded; \
           interprocedural %d/%d in %d iters)\n"
          file
          (List.length r.Absint.r_diags)
          (if List.length r.Absint.r_diags = 1 then "" else "s")
          r.Absint.r_sites r.Absint.r_elided r.Absint.r_guarded
          r.Absint.r_flow_elided r.Absint.r_flow_sites r.Absint.r_iters;
        1
      end
  end
  else if lint then begin
    let externs =
      if no_libc then "" else Cheri_workloads.Stdlib_src.libc_externs
    in
    match Cheri_analysis.Lint.analyze_source ~externs src with
    | Error msg ->
      Printf.eprintf "%s: %s\n" file msg;
      2
    | Ok [] ->
      Printf.printf "%s: no lint diagnostics\n" file;
      0
    | Ok diags ->
      List.iter
        (fun d ->
          Printf.printf "%s: %s\n" file (Cheri_analysis.Lint.pp_diag d))
        diags;
      Printf.printf "%s: %d diagnostic%s\n" file (List.length diags)
        (if List.length diags = 1 then "" else "s");
      1
  end
  else begin
  try
  if dump_asm then begin
    let obj =
      Cheri_cc.Compile.compile_source ~name:"prog" ~opts
        (if no_libc then src
         else Cheri_workloads.Stdlib_src.libc_externs ^ src)
    in
    let asmd = Cheri_isa.Asm.assemble ~extern:(fun _ -> Some 0) ~base:0
        obj.Cheri_rtld.Sobj.so_code in
    Fmt.pr "%a" Cheri_isa.Asm.pp asmd;
    0
  end
  else begin
    let k = Kernel.boot () in
    k.Cheri_kernel.Kstate.config.Cheri_kernel.Kstate.engine <- engine;
    if elide then
      k.Cheri_kernel.Kstate.config.Cheri_kernel.Kstate.fact_provider <-
        Some (Cheri_analysis.Absint.provider ());
    Cheri_libc.Runtime.install k;
    let collector = Trace.collector () in
    if trace then begin
      k.Cheri_kernel.Kstate.tracer <- Some (Trace.sink_of collector);
      k.Cheri_kernel.Kstate.trace_pid <- Some k.Cheri_kernel.Kstate.next_pid
    end;
    (if no_libc then Cheri_cc.Compile.install k ~path:"/bin/prog" ~abi src
     else
       Cheri_workloads.Stdlib_src.install k ~path:"/bin/prog" ~abi
         ~opts src);
    let argv = Filename.basename file :: args in
    let status, out, p = Kernel.run_program k ~path:"/bin/prog" ~argv in
    print_string out;
    if out <> "" && out.[String.length out - 1] <> '\n' then print_newline ();
    let code =
      match status with
      | Some (Proc.Exited c) -> c
      | Some (Proc.Signaled s) ->
        Printf.eprintf "killed by %s%s\n" (Signo.name s)
          (match List.rev p.Proc.fault_log with
           | m :: _ -> ": " ^ m
           | [] -> "");
        128 + s
      | None ->
        prerr_endline "did not terminate";
        124
    in
    if stats then begin
      Printf.eprintf
        "--- stats (%s) ---\ninstructions: %d\ncycles:       %d\n\
         syscalls:     %d\nL2 misses:    %d\n"
        (Abi.to_string abi) p.Proc.ctx.Cpu.instret p.Proc.ctx.Cpu.cycles
        p.Proc.syscall_count
        (Cache.l2_misses (Cheri_kernel.Kstate.hierarchy k))
    end;
    if astats then begin
      let module Absint = Cheri_analysis.Absint in
      let module Bbcache = Cheri_isa.Bbcache in
      let s = Absint.stats in
      let funcs, iters, checks, proved = Absint.ipa_totals () in
      let bb = k.Cheri_kernel.Kstate.bb in
      let checked = bb.Bbcache.checked_probes
      and elided = bb.Bbcache.elided_probes in
      let rate a b = if a + b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int (a + b) in
      Printf.eprintf
        "--- analysis stats ---\n\
         functions summarized:  %d (%d fixpoint iterations)\n\
         checks provable:       %d of %d flow sites\n\
         facts cache:           %d hits, %d misses (%.1f%% hit rate)\n\
         superblocks analyzed:  %d eager, %d lazy, %d guarded pre-scans\n\
         dynamic probes:        %d checked, %d elided (%.1f%% elided)\n"
        funcs iters proved checks s.Absint.cs_hits s.Absint.cs_misses
        (rate s.Absint.cs_hits s.Absint.cs_misses)
        s.Absint.cs_eager_sb s.Absint.cs_lazy_sb s.Absint.cs_lazy_gsb
        checked elided (rate elided checked)
    end;
    if trace then begin
      let events = Trace.to_list collector in
      let regions =
        G.regions_of_trace
          ~stack_range:
            (Cheri_kernel.Exec.stack_base, Cheri_kernel.Exec.stack_top)
          events
      in
      let es = G.entries regions events in
      let s = G.summarize es in
      Printf.eprintf
        "--- capability trace ---\nevents: %d, capabilities created: %d\n\
         <=1KiB: %.1f%%, largest: %d bytes\n"
        (List.length events) s.G.s_total s.G.s_pct_under_1k s.G.s_largest;
      List.iter
        (fun src ->
          let c = G.cdf_of ~source:src es in
          if c.G.c_total > 0 then
            Printf.eprintf "  %-12s %6d caps, max %d bytes\n"
              (G.source_name src) c.G.c_total c.G.c_max_size)
        G.all_sources
    end;
    code
  end
  with Cheri_cc.Ast.Compile_error msg ->
    let bias = if no_libc then 0 else externs_lines in
    Printf.eprintf "%s: %s\n" file (Cheri_analysis.Lint.shift_line ~bias msg);
    2
  end

let cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let abi =
    Arg.(value & opt abi_conv Abi.Cheriabi
         & info [ "abi" ] ~doc:"Target ABI: mips64, cheriabi or asan.")
  in
  let engine =
    Arg.(value & opt engine_conv Cpu.Chain
         & info [ "engine" ]
             ~doc:"Execution engine: $(b,step) (reference per-instruction \
                   interpreter) or $(b,chain) (decoded basic-block cache \
                   with superblock chaining and inline caches; the \
                   default). Both produce bit-identical statistics.")
  in
  let args =
    Arg.(value & opt_all string [] & info [ "arg" ] ~doc:"Program argument.")
  in
  let dump = Arg.(value & flag & info [ "dump-asm" ] ~doc:"Print assembly.") in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print run statistics.") in
  let trace =
    Arg.(value & flag
         & info [ "trace" ] ~doc:"Trace capability creation (Fig. 5 style).")
  in
  let no_libc =
    Arg.(value & flag & info [ "no-libc" ] ~doc:"Do not link the CSmall libc.")
  in
  let clc_small =
    Arg.(value & flag
         & info [ "clc-small-imm" ]
             ~doc:"Use the pre-extension CLC with a small immediate.")
  in
  let lint =
    Arg.(value & flag
         & info [ "lint" ]
             ~doc:"Run the capability provenance lint instead of executing. \
                   Exits 0 if clean, 1 with diagnostics, 2 on compile errors.")
  in
  let verify =
    Arg.(value & flag
         & info [ "verify" ]
             ~doc:"Run the machine-level capability abstract interpreter over \
                   the linked image instead of executing: report statically \
                   provable capability violations and check-elision counts. \
                   Exits 0 if clean, 1 with diagnostics, 2 on compile or \
                   link errors.")
  in
  let elide =
    Arg.(value & flag
         & info [ "elide-checks" ]
             ~doc:"Let the chain engine skip capability checks the abstract \
                   interpreter proves cannot fail. Observable behaviour and \
                   all statistics remain bit-identical.")
  in
  let astats =
    Arg.(value & flag
         & info [ "analysis-stats" ]
             ~doc:"After the run, print check-elision analysis statistics: \
                   functions summarized, interprocedural fixpoint \
                   iterations, statically provable checks, fact-cache hit \
                   rate and the dynamic checked/elided probe counts. Most \
                   useful together with $(b,--elide-checks).")
  in
  let fleet =
    Arg.(value & opt int 0
         & info [ "fleet" ] ~docv:"N"
             ~doc:"Run $(docv) instances of the program as whole simulated \
                   machines sharded across OCaml domains, and print the \
                   aggregate fleet report instead of the program's output. \
                   Request latency percentiles are computed over '#' markers \
                   the program prints. Exits 0 iff every machine exits 0.")
  in
  let domains =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"D"
             ~doc:"Number of domains requested for $(b,--fleet) (capped at \
                   the host's core count; see docs/FLEET.md).")
  in
  Cmd.v
    (Cmd.info "cheri_run" ~doc:"Run a CSmall program on the CheriABI simulator")
    Term.(const run $ file $ abi $ engine $ args $ dump $ stats $ trace
          $ no_libc $ clc_small $ lint $ verify $ elide $ astats $ fleet
          $ domains)

let () = exit (Cmd.eval' cmd)
