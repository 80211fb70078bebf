(* cheri_verify: run the machine-level capability abstract interpreter
   (lib/analysis/absint.ml) over compiled CSmall images and print a
   deterministic report.

     dune exec bin/cheri_verify.exe -- prog.c other.c
     dune exec bin/cheri_verify.exe -- --corpus
     dune exec bin/cheri_verify.exe -- --abi mips64 prog.c

   Each source is compiled and linked exactly as execve would place it,
   then verified: the report lists every statically provable capability
   violation (located by pc, instruction, block and function) plus the
   check-elision statistics (how many dynamic capability checks the
   analysis discharged). With --corpus the embedded workload sources are
   verified as well. The output is stable across runs and is diffed
   against a checked-in baseline by the @verify alias. *)

module Perms = Cheri_cap.Perms
module Abi = Cheri_core.Abi
module Rtld = Cheri_rtld.Rtld
module Kstate = Cheri_kernel.Kstate
module Absint = Cheri_analysis.Absint
module Compat = Cheri_workloads.Compat
module Stdlib_src = Cheri_workloads.Stdlib_src

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* User PCC never carries System_regs (Kstate.boot narrows it away before
   any user capability is derived). *)
let pcc_may = Perms.diff Perms.all Perms.system_regs

type totals = {
  mutable t_must : int;
  mutable t_warn : int;
  mutable t_sites : int;
  mutable t_elided : int;
  mutable t_guarded : int;
  mutable t_flow_sites : int;
  mutable t_flow_elided : int;
}

let totals =
  { t_must = 0; t_warn = 0; t_sites = 0; t_elided = 0; t_guarded = 0;
    t_flow_sites = 0; t_flow_elided = 0 }

(* Verify one named source under [abi]: print diagnostics and elision
   statistics, accumulate totals. *)
let verify_named ~abi name src =
  Printf.printf "== %s [%s] ==\n" name (Abi.to_string abi);
  match
    let image = Stdlib_src.build_image ~abi ~name src in
    Rtld.link ~abi image
  with
  | exception Cheri_cc.Ast.Compile_error msg ->
    Printf.printf "  (not compilable: %s)\n" msg
  | exception Rtld.Link_error msg ->
    Printf.printf "  (not linkable: %s)\n" msg
  | link ->
    (* Exactly the view Exec hands the kernel fact provider. *)
    let entries, got = Rtld.linkage_view link in
    let r =
      Absint.verify ~ddc:(Kstate.initial_ddc abi) ~pcc_may ~entries ~got
        link.Rtld.lk_code
    in
    if r.Absint.r_diags = [] then Printf.printf "  (clean)\n"
    else
      List.iter
        (fun d -> Printf.printf "  %s\n" (Absint.pp_diag d))
        r.Absint.r_diags;
    let must, warn =
      List.fold_left
        (fun (m, w) (d : Absint.diag) ->
          match d.Absint.g_sev with
          | Absint.Must -> (m + 1, w)
          | Absint.Warn -> (m, w + 1))
        (0, 0) r.Absint.r_diags
    in
    let pct n =
      if r.Absint.r_sites = 0 then 0.
      else 100. *. float n /. float r.Absint.r_sites
    in
    Printf.printf
      "  funcs %d, blocks %d; checks %d, elidable %d (%.1f%%) + %d guarded \
       (%.1f%% total), superblocks with facts %d\n"
      r.Absint.r_funcs r.Absint.r_blocks r.Absint.r_sites r.Absint.r_elided
      (pct r.Absint.r_elided) r.Absint.r_guarded
      (pct (r.Absint.r_elided + r.Absint.r_guarded))
      r.Absint.r_sb;
    let fpct =
      if r.Absint.r_flow_sites = 0 then 0.
      else 100. *. float r.Absint.r_flow_elided /. float r.Absint.r_flow_sites
    in
    Printf.printf
      "  interprocedural: %d of %d flow checks provable (%.1f%%), %d summary \
       iterations\n"
      r.Absint.r_flow_elided r.Absint.r_flow_sites fpct r.Absint.r_iters;
    totals.t_must <- totals.t_must + must;
    totals.t_warn <- totals.t_warn + warn;
    totals.t_sites <- totals.t_sites + r.Absint.r_sites;
    totals.t_elided <- totals.t_elided + r.Absint.r_elided;
    totals.t_guarded <- totals.t_guarded + r.Absint.r_guarded;
    totals.t_flow_sites <- totals.t_flow_sites + r.Absint.r_flow_sites;
    totals.t_flow_elided <- totals.t_flow_elided + r.Absint.r_flow_elided

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let corpus = List.mem "--corpus" args in
  let abi =
    let rec pick = function
      | "--abi" :: "mips64" :: _ -> Abi.Mips64
      | "--abi" :: "cheriabi" :: _ -> Abi.Cheriabi
      | "--abi" :: "asan" :: _ -> Abi.Asan
      | _ :: rest -> pick rest
      | [] -> Abi.Cheriabi
    in
    pick args
  in
  (* Coverage-regression gate (@verify): exit nonzero when total static
     elision coverage (unconditional + guarded, over all verified images)
     falls below this floor, so an analysis regression fails the build
     even before the baseline diff localizes it. *)
  let min_elide =
    let rec pick = function
      | "--min-elide" :: v :: _ -> Some (float_of_string v)
      | _ :: rest -> pick rest
      | [] -> None
    in
    pick args
  in
  let files =
    let rec strip = function
      | "--abi" :: _ :: rest -> strip rest
      | "--min-elide" :: _ :: rest -> strip rest
      | "--corpus" :: rest -> strip rest
      | f :: rest -> f :: strip rest
      | [] -> []
    in
    strip args
  in
  List.iter (fun f -> verify_named ~abi f (read_file f)) files;
  if corpus then
    List.iter
      (fun (group, sources) ->
        List.iter
          (fun (name, src) -> verify_named ~abi (group ^ " / " ^ name) src)
          sources)
      (Compat.own_sources ());
  let pct n =
    if totals.t_sites = 0 then 0. else 100. *. float n /. float totals.t_sites
  in
  let covered = totals.t_elided + totals.t_guarded in
  Printf.printf
    "\n== totals ==\nmust-trap %d, may-trap %d; checks %d, elidable %d \
     (%.1f%%) + %d guarded = %d covered (%.1f%%)\n"
    totals.t_must totals.t_warn totals.t_sites totals.t_elided
    (pct totals.t_elided) totals.t_guarded covered (pct covered);
  Printf.printf "interprocedural: %d of %d flow checks provable\n"
    totals.t_flow_elided totals.t_flow_sites;
  match min_elide with
  | Some floor when pct covered < floor ->
    Printf.eprintf
      "cheri_verify: elision coverage %.1f%% fell below the recorded floor \
       %.1f%%\n"
      (pct covered) floor;
    exit 3
  | _ -> ()
