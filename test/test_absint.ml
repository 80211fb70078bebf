(* Soundness of the machine-level capability abstract interpreter
   (lib/analysis/absint.ml) — the authority for check elision.

   The elision contract is conditional: a fact (E, i) claims that IF
   execution proceeds straight-line from superblock entry E through
   instruction i, the capability check at i cannot fail; a must-trap claim
   (E, i) symmetrically says the instruction at i MUST trap. Both are
   validated dynamically here:

   1. A step-driven oracle over the same 120 seeded fuzz programs the
      engine-differential test uses: the reference interpreter runs one
      instruction at a time while the oracle reconstructs the superblock
      entry exactly as the block engine keys blocks. No instruction
      claimed must-trap may retire; no trap may fire on a check the
      analysis discharged — unconditionally (tier 1) or under a guard the
      oracle saw hold on the block-entry register state (tier 2).

   2. Directed machine-code programs, one per violation kind, asserting
      both directions at a known pc: the scan flags the must-trap AND the
      machine actually traps there.

   3. Directed elision-positive programs: the second access through an
      already-checked capability is provably safe.

   4. A C-level program dereferencing an integer-derived pointer: the
      whole-image verifier locates the must-trap, and the kernel run dies
      with SIGPROT at that very pc (cross-referenced through the enriched
      fault log).

   5. Kernel-level parity: workloads run with and without elision must
      produce identical output, instruction, cycle and L2 counts. *)

module Cap = Cheri_cap.Cap
module Perms = Cheri_cap.Perms
module Insn = Cheri_isa.Insn
module Cpu = Cheri_isa.Cpu
module Bbcache = Cheri_isa.Bbcache
module Facts = Cheri_isa.Facts
module Trap = Cheri_isa.Trap
module Abi = Cheri_core.Abi
module Absint = Cheri_analysis.Absint
module Harness = Cheri_workloads.Harness
module Proc = Cheri_kernel.Proc
module Signo = Cheri_kernel.Signo

let code_base = Test_engines.code_base
let data_base = Test_engines.data_base

(* --- 1. Fuzz oracle ---------------------------------------------------------- *)

(* Does [cause], raised by [insn], contradict an elided check? The elided
   probe is [check_cap] on the addressed capability (or DDC, reg -2):
   a capability fault against that register means the discharged check
   fired after all. Value-dependent CSC faults (STORE_CAP / STORE_LOCAL_CAP
   of the stored value) still run when elided, as do alignment checks,
   translation and everything else. *)
let contradicts_elision insn cause =
  match insn, cause with
  | Some (Insn.CLoad { cb; _ }), Trap.Cap_fault { reg; _ }
  | Some (Insn.CStore { cb; _ }), Trap.Cap_fault { reg; _ }
  | Some (Insn.CLC { cb; _ }), Trap.Cap_fault { reg; _ } -> reg = cb
  | Some (Insn.CSC { cb; _ }), Trap.Cap_fault { reg; violation; _ } ->
    reg = cb
    && (match violation with
        | Cap.Permit_violation p ->
          not
            (Perms.subset p Perms.store_cap
             || Perms.subset p Perms.store_local_cap)
        | _ -> true)
  | Some (Insn.Load _), Trap.Cap_fault { reg; _ }
  | Some (Insn.Store _), Trap.Cap_fault { reg; _ } -> reg = -2
  | _ -> false

(* Run one fuzz program under the step interpreter, reconstructing block
   entries, and check every retirement/trap against the static claims. *)
let oracle_one seed errors =
  let insns, _ = Test_engines.gen_program (seed * 7919) in
  let m, ctx, _mem = Test_engines.setup insns seed in
  let sc = Absint.scan_code ~ddc:ctx.Cpu.ddc [ (code_base, insns) ] in
  let entry = ref (Cap.addr ctx.Cpu.pcc) in
  let guard_held = ref false in
  let fuel = ref Test_engines.fuel in
  let stop = ref false in
  while (not !stop) && !fuel > 0 do
    let pc = Cap.addr ctx.Cpu.pcc in
    (* The block engine never decodes past [max_block]: the next pc keys a
       fresh block. *)
    if (pc - !entry) / 4 >= Bbcache.max_block then entry := pc;
    let e = !entry in
    let i = (pc - e) / 4 in
    (* At a block entry the context is exactly the state the block engine
       evaluates tier-2 guards against; record the verdict for the whole
       block. *)
    if i = 0 then begin
      let gm, preds = Facts.guarded sc.Absint.sc_facts e in
      guard_held := gm <> 0 && Bbcache.guard_ok ctx preds
    end;
    let insn = try Some (m.Cpu.fetch pc) with Trap.Trap _ -> None in
    let r = Cpu.run m ctx ~fuel:1 in
    decr fuel;
    (match r with
     | None | Some Cpu.Stop_syscall | Some (Cpu.Stop_rt _) ->
       (* Retired without trapping: it must not have been claimed
          must-trap. *)
       if Absint.must_traps sc ~entry:e ~index:i then
         errors :=
           Printf.sprintf
             "seed %d: 0x%x (entry 0x%x idx %d) retired but claimed must-trap"
             seed pc e i
           :: !errors
     | Some (Cpu.Stop_trap cause) ->
       (* Trapped: the trap must not be a check the analysis elided —
          unconditionally, or under a guard that held at block entry. *)
       let gm, _ = Facts.guarded sc.Absint.sc_facts e in
       let claimed =
         Facts.elidable sc.Absint.sc_facts ~entry:e ~index:i
         || (!guard_held && i <= Facts.max_index && (gm lsr i) land 1 = 1)
       in
       if claimed && contradicts_elision insn cause then
         errors :=
           Printf.sprintf
             "seed %d: 0x%x (entry 0x%x idx %d) elided check trapped: %s"
             seed pc e i (Trap.to_string cause)
           :: !errors);
    (match r with
     | None ->
       let next = Cap.addr ctx.Cpu.pcc in
       if next <> pc + 4 then entry := next
       else (
         match insn with
         | Some ins when Insn.is_terminator ins -> entry := next
         | _ -> ())
     | Some _ -> stop := true)
  done

let test_fuzz_oracle () =
  let errors = ref [] in
  for seed = 1 to 120 do
    oracle_one seed errors
  done;
  List.iter print_endline !errors;
  Alcotest.(check int) "no claim contradicted dynamically" 0
    (List.length !errors)

(* --- 2. Directed must-trap programs ------------------------------------------ *)

(* Each case: instructions placed at [code_base], the index of the
   instruction that must trap, and the claim kind (for the error message).
   The program is scanned from a Top entry state — every proof must work
   with no knowledge of the initial registers — then run on the real
   machine, which must trap exactly at that pc. *)
let directed_cases =
  [ ( "tag: load through cleared tag",
      [| Insn.CClearTag (2, 1);
         Insn.CLoad { w = 8; signed = false; rd = 8; cb = 2; off = 0 };
         Insn.Break 0 |],
      1 );
    ( "seal: load through sealed cap",
      [| Insn.CSeal (2, 1, 5);
         Insn.CLoad { w = 8; signed = false; rd = 8; cb = 2; off = 0 };
         Insn.Break 0 |],
      1 );
    ( "perm: store through load-only cap",
      [| Insn.CAndPermImm (2, 1, Perms.load);
         Insn.CStore { w = 8; rs = 8; cb = 2; off = 0 };
         Insn.Break 0 |],
      1 );
    ( "bounds: access past set bounds",
      [| Insn.CSetBoundsImm (2, 1, 16);
         Insn.CLoad { w = 8; signed = false; rd = 8; cb = 2; off = 24 };
         Insn.Break 0 |],
      1 );
    ( "monotonicity: widening set-bounds",
      [| Insn.CSetBoundsImm (2, 1, 8);
         Insn.CSetBoundsImm (3, 2, 16);
         Insn.Break 0 |],
      1 );
    ( "div-zero: constant zero divisor",
      [| Insn.Li (8, 0);
         Insn.Div (9, 10, 8);
         Insn.Break 0 |],
      1 );
    ( "jump-align: misaligned direct jump",
      [| Insn.Nop;
         Insn.J (code_base + 2);
         Insn.Break 0 |],
      1 );
    ( "tag: jump through cleared tag",
      [| Insn.CClearTag (2, 1);
         Insn.CJR 2;
         Insn.Break 0 |],
      1 ) ]

let test_directed_must () =
  List.iter
    (fun (name, insns, idx) ->
      let pc_expect = code_base + (4 * idx) in
      (* Static: the scan must claim the trap. *)
      let sc = Absint.scan_code [ (code_base, insns) ] in
      if not (Absint.must_traps sc ~entry:code_base ~index:idx) then
        Alcotest.failf "%s: no static must-trap claim at index %d" name idx;
      (* Dynamic: the machine must trap exactly there. *)
      let m, ctx, _mem = Test_engines.setup insns 1 in
      (match Cpu.run m ctx ~fuel:50 with
       | Some (Cpu.Stop_trap _) ->
         let pc = Cap.addr ctx.Cpu.pcc in
         Alcotest.(check int) (name ^ ": trap pc") pc_expect pc
       | r ->
         Alcotest.failf "%s: expected a trap, got %s" name
           (match r with
            | None -> "fuel exhaustion"
            | Some Cpu.Stop_syscall -> "syscall"
            | Some (Cpu.Stop_rt n) -> Printf.sprintf "rt %d" n
            | Some (Cpu.Stop_trap _) -> assert false));
      (* And under the chaining block engine: a trap raised mid-chain is
         attributed to the pc of the block that actually faulted, so the
         dynamic trap pc must still cross-reference the absint claim. *)
      let m, ctx, _mem = Test_engines.setup insns 1 in
      (match Bbcache.run (Bbcache.create ()) m ctx ~fuel:50 with
       | Some (Cpu.Stop_trap _) ->
         Alcotest.(check int) (name ^ ": chained trap pc") pc_expect
           (Cap.addr ctx.Cpu.pcc)
       | _ -> Alcotest.failf "%s: chain engine did not trap" name))
    directed_cases

(* --- 3. Directed elision-positive programs ----------------------------------- *)

let test_directed_elision () =
  (* Second access through the same register: the first access proves the
     capability tagged, unsealed, load-permitted and in bounds at this
     offset; the second is then discharged. The first cannot be (the entry
     state is Top). *)
  let insns =
    [| Insn.CLoad { w = 8; signed = false; rd = 8; cb = 1; off = 0 };
       Insn.CLoad { w = 8; signed = false; rd = 9; cb = 1; off = 0 };
       Insn.Break 0 |]
  in
  let sc = Absint.scan_code [ (code_base, insns) ] in
  Alcotest.(check bool) "first access not elidable" false
    (Facts.elidable sc.Absint.sc_facts ~entry:code_base ~index:0);
  Alcotest.(check bool) "repeat access elidable" true
    (Facts.elidable sc.Absint.sc_facts ~entry:code_base ~index:1);
  (* Legacy loads under a concrete DDC: both accesses are at constant
     addresses the DDC provably covers, so both checks are discharged. *)
  let root = Cap.make_root ~base:0 ~top:Test_engines.mem_size () in
  let insns =
    [| Insn.Li (8, data_base);
       Insn.Load { w = 8; signed = false; rd = 9; base = 8; off = 0 };
       Insn.Load { w = 8; signed = false; rd = 10; base = 8; off = 8 };
       Insn.Break 0 |]
  in
  let sc = Absint.scan_code ~ddc:root [ (code_base, insns) ] in
  Alcotest.(check bool) "legacy load 1 elidable" true
    (Facts.elidable sc.Absint.sc_facts ~entry:code_base ~index:1);
  Alcotest.(check bool) "legacy load 2 elidable" true
    (Facts.elidable sc.Absint.sc_facts ~entry:code_base ~index:2);
  (* Exact bounds derivation pins the window; the first access still has
     to prove the load permission, after which the next one is free. *)
  let insns =
    [| Insn.CSetBoundsImm (2, 1, 16);
       Insn.CLoad { w = 8; signed = false; rd = 8; cb = 2; off = 0 };
       Insn.CLoad { w = 8; signed = false; rd = 9; cb = 2; off = 8 };
       Insn.Break 0 |]
  in
  let sc = Absint.scan_code [ (code_base, insns) ] in
  Alcotest.(check bool) "post-setbounds first access not elidable" false
    (Facts.elidable sc.Absint.sc_facts ~entry:code_base ~index:1);
  Alcotest.(check bool) "post-setbounds repeat access elidable" true
    (Facts.elidable sc.Absint.sc_facts ~entry:code_base ~index:2)

(* --- 3b. Guarded (tier-2) elision in the chain engine ------------------------ *)

(* First accesses through an unknown capability register are never
   unconditionally elidable (the scan's entry state is Top), but the scan
   emits a guarded fact: one register predicate that licenses eliding every
   check it hulls. The engine evaluates the predicate on the entry-time
   register state — a valid wide capability passes (checks compiled out),
   an untagged one fails (exact single-step fallback reproducing the
   reference trap). *)
let guarded_prog cb =
  [| Insn.CLoad { w = 8; signed = false; rd = 8; cb; off = 0 };
     Insn.CLoad { w = 8; signed = false; rd = 9; cb; off = 8 };
     Insn.Break 0 |]

let test_guarded_elision () =
  let insns = guarded_prog 1 in
  let sc = Absint.scan_code [ (code_base, insns) ] in
  Alcotest.(check bool) "first access not unconditionally elidable" false
    (Facts.elidable sc.Absint.sc_facts ~entry:code_base ~index:0);
  let gm, preds = Facts.guarded sc.Absint.sc_facts code_base in
  Alcotest.(check int) "guarded mask covers both checks" 0b11 (gm land 0b11);
  Alcotest.(check bool) "predicates name the addressed register" true
    (Array.length preds > 0
     && Array.for_all
          (fun p -> p.Facts.gp_reg = 1 && not p.Facts.gp_ddc)
          preds);
  (* Valid wide capability in c1: the guard holds, both probes are
     elided, and the snapshot matches the reference interpreter. *)
  let step = Test_engines.run_step insns 3 in
  let m, ctx, mem = Test_engines.setup insns 3 in
  let facts = Absint.facts_of_code ~ddc:ctx.Cpu.ddc [ (code_base, insns) ] in
  let bb = Bbcache.create () in
  Bbcache.set_facts bb (Some facts);
  let stop = Bbcache.run bb m ctx ~fuel:50 in
  Alcotest.(check string) "guarded parity" step
    (Test_engines.snapshot stop m ctx mem);
  Alcotest.(check int) "guard held, probes elided" 2
    bb.Bbcache.elided_probes;
  Alcotest.(check int) "guard held, nothing checked" 0
    bb.Bbcache.checked_probes;
  (* Untagged capability in c6: the same program shape now fails the
     guard at block entry; the engine falls back to exact single-step
     and reproduces the reference trap with no probe accounted. *)
  let insns6 = guarded_prog 6 in
  let step6 = Test_engines.run_step insns6 3 in
  let m, ctx, mem = Test_engines.setup insns6 3 in
  let facts = Absint.facts_of_code ~ddc:ctx.Cpu.ddc [ (code_base, insns6) ] in
  let bb = Bbcache.create () in
  Bbcache.set_facts bb (Some facts);
  let stop = Bbcache.run bb m ctx ~fuel:50 in
  Alcotest.(check string) "failed-guard parity" step6
    (Test_engines.snapshot stop m ctx mem);
  Alcotest.(check int) "failed guard, nothing elided" 0
    bb.Bbcache.elided_probes

(* --- 3c. Branch refinement at the interprocedural flow level ----------------- *)

(* A CGetLen/Sltu/Beq guard dominating a dereference: on the guarded edge
   the flow analysis learns the bounds-compare outcome and discharges the
   check; the same dereference without the guard stays checked. And a
   CGetTag guard over a known-untagged capability prunes the would-trap
   edge as infeasible, so no must-trap diagnostic is emitted — while the
   unguarded twin flags it. *)
let test_branch_refinement () =
  let flow prog =
    let r = Absint.verify ~entries:[ code_base ] [ (code_base, prog) ] in
    let musts =
      List.filter (fun d -> d.Absint.g_sev = Absint.Must) r.Absint.r_diags
    in
    (r.Absint.r_flow_sites, r.Absint.r_flow_elided, List.length musts)
  in
  (* base := cursor (length stays unknown), prove the load permission with
     a first access, then branch on (15 <u length): the fall-through edge
     proves the [0,16) window, covering the off-8 dereference. *)
  let lskip = code_base + (4 * 7) in
  let guarded =
    [| Insn.CSetBoundsExact (1, 1, 5);
       Insn.CLoad { w = 8; signed = false; rd = 2; cb = 1; off = 0 };
       Insn.CGetLen (9, 1);
       Insn.Li (10, 15);
       Insn.Sltu (11, 10, 9);
       Insn.Beq (11, 0, lskip);
       Insn.CLoad { w = 8; signed = false; rd = 3; cb = 1; off = 8 };
       Insn.Break 0 |]
  in
  let unguarded = Array.copy guarded in
  unguarded.(5) <- Insn.Nop;
  Alcotest.(check (triple int int int))
    "bounds-compare guard discharges the dominated dereference" (2, 1, 0)
    (flow guarded);
  Alcotest.(check (triple int int int))
    "without the branch the same dereference stays checked" (2, 0, 0)
    (flow unguarded);
  (* Tag refinement: c1 is provably untagged, so the tag != 0 edge is
     infeasible and the dereference behind it is unreachable. *)
  let lderef = code_base + (4 * 4) in
  let pruned =
    [| Insn.CClearTag (1, 1);
       Insn.CGetTag (8, 1);
       Insn.Bne (8, 0, lderef);
       Insn.Break 0;
       Insn.CLoad { w = 8; signed = false; rd = 2; cb = 1; off = 0 };
       Insn.Break 0 |]
  in
  let reached = Array.copy pruned in
  reached.(2) <- Insn.J lderef;
  let _, _, pruned_musts = flow pruned in
  Alcotest.(check int) "infeasible-edge dereference emits no must-trap" 0
    pruned_musts;
  let _, _, reached_musts = flow reached in
  Alcotest.(check bool) "unguarded twin flags the must-trap" true
    (reached_musts > 0)

(* --- 3d. Tail calls in the CFG ------------------------------------------------ *)

(* A direct jump into another function's entry is a tail call: a call edge
   (so the callee's summary applies and its exit composes into the
   caller's), not a successor edge (the callee's blocks must not be
   swallowed into the caller's partition). *)
let test_tail_call_cfg () =
  let g = code_base + 8 in
  let insns =
    [| Insn.Nop; Insn.J g; Insn.Li (2, 1); Insn.Break 0 |]
  in
  let cfg =
    Cheri_analysis.Cfg.build ~entries:[ code_base; g ] [ (code_base, insns) ]
  in
  let module Cfg = Cheri_analysis.Cfg in
  let fb =
    match Cfg.block_of cfg code_base with
    | Some b -> b
    | None -> Alcotest.fail "no block at the caller's entry"
  in
  Alcotest.(check (list int)) "tail call recorded as a call edge" [ g ]
    fb.Cfg.bb_calls;
  Alcotest.(check bool) "tail call leaves no successor edge" true
    (fb.Cfg.bb_succs = []);
  let members root =
    match List.assoc_opt root cfg.Cfg.funcs with
    | Some ms -> ms
    | None -> Alcotest.failf "no function partition at 0x%x" root
  in
  Alcotest.(check bool) "callee blocks stay out of the caller's partition"
    false
    (List.mem g (members code_base));
  Alcotest.(check bool) "callee partitions under its own root" true
    (List.mem g (members g))

(* --- 4. C-level must-trap, cross-referenced with the kernel fault ------------ *)

let int_deref_src = {|
int main(int argc, char **argv) {
  char *p = (char *)4096;
  return *p;
}
|}

let test_c_level_must_trap () =
  (* Static: the whole-image verifier locates at least one must-trap. *)
  let image =
    Cheri_workloads.Stdlib_src.build_image ~abi:Abi.Cheriabi ~name:"t"
      int_deref_src
  in
  let link = Cheri_rtld.Rtld.link ~abi:Abi.Cheriabi image in
  let entries, got = Cheri_rtld.Rtld.linkage_view link in
  let r =
    Absint.verify ~ddc:Cap.null
      ~pcc_may:(Perms.diff Perms.all Perms.system_regs)
      ~entries ~got link.Cheri_rtld.Rtld.lk_code
  in
  let musts =
    List.filter (fun d -> d.Absint.g_sev = Absint.Must) r.Absint.r_diags
  in
  Alcotest.(check bool) "verifier finds a must-trap" true (musts <> []);
  (* Dynamic: the run dies with SIGPROT, and the enriched fault log names
     one of the statically flagged pcs. *)
  let m = Harness.run ~abi:Abi.Cheriabi int_deref_src in
  (match m.Harness.m_status with
   | Some (Proc.Signaled s) ->
     Alcotest.(check string) "killed by SIGPROT" (Signo.name Signo.sigprot)
       (Signo.name s)
   | _ -> Alcotest.failf "expected SIGPROT, got %s" (Harness.status_string m));
  let fault = String.concat "; " m.Harness.m_faults in
  let named =
    List.exists
      (fun (d : Absint.diag) ->
        let needle = Printf.sprintf "at 0x%x:" d.Absint.g_pc in
        let nl = String.length needle and fl = String.length fault in
        let rec find i =
          i + nl <= fl && (String.sub fault i nl = needle || find (i + 1))
        in
        find 0)
      musts
  in
  if not named then
    Alcotest.failf "fault log %S names none of the flagged pcs" fault

(* --- 5. Kernel-level elision parity ------------------------------------------ *)

let test_kernel_elide_parity () =
  List.iter
    (fun abi ->
      let plain = Harness.run ~abi Test_engines.parity_src in
      let elided = Harness.run ~elide:true ~abi Test_engines.parity_src in
      let label = Abi.to_string abi in
      if not (Harness.ok plain && Harness.ok elided) then
        Alcotest.failf "%s: parity run failed (%s / %s)" label
          (Harness.status_string plain)
          (Harness.status_string elided);
      Alcotest.(check string) "output" plain.Harness.m_output
        elided.Harness.m_output;
      Alcotest.(check int) "instructions"
        plain.Harness.m_instructions elided.Harness.m_instructions;
      Alcotest.(check int) "cycles" plain.Harness.m_cycles
        elided.Harness.m_cycles;
      Alcotest.(check int) "L2 misses" plain.Harness.m_l2_misses
        elided.Harness.m_l2_misses)
    [ Abi.Mips64; Abi.Cheriabi ]

let suite =
  [ "fuzz soundness oracle", `Quick, test_fuzz_oracle;
    "directed must-trap claims", `Quick, test_directed_must;
    "directed elision claims", `Quick, test_directed_elision;
    "guarded elision in the engines", `Quick, test_guarded_elision;
    "branch refinement", `Quick, test_branch_refinement;
    "tail calls in the CFG", `Quick, test_tail_call_cfg;
    "C-level must-trap + fault cross-reference", `Quick,
    test_c_level_must_trap;
    "kernel elision parity", `Quick, test_kernel_elide_parity ]
