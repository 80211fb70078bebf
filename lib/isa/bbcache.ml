(* Decoded basic-block cache: the simulator's fast execution engine.

   [Cpu.step] pays a fixed per-instruction tax — a PCC execute/bounds
   check, a translate callback, a fetch indirection, the big match
   dispatch, and a fresh [Cap.set_addr] allocation to commit the PC. This
   engine translates maximal straight-line instruction runs ("superblocks"
   keyed by entry pc) into arrays of pre-resolved OCaml closures, then:

   - hoists the per-instruction PCC execute check into one per-block
     tag/seal/perm/bounds check ([enterable]);
   - keeps the PC as an implicit cursor (entry + 4*i) and materializes a
     capability only at chain exits, traps and stops;
   - memoizes the instruction-side translate at page granularity within
     one [run] (the kernel only remaps/evicts pages *between* runs, so a
     (vpage -> frame) pair cannot go stale mid-run; the memo is reset on
     every entry);
   - skips the per-instruction fetch: decoding happened at build time;
   - chains blocks: a block exit resolves its successor through a patched
     direct link (fall-through) or a monomorphic inline cache (jumps,
     capability jumps), entering the next translated block without
     returning to the dispatch loop — threaded code in the
     Deutsch/Schiffman sense, with fuel checked per chained entry and the
     PCC commit deferred until the chain exits.

   Accounting: per-instruction [Cache.ifetch] probes and cycle accounting
   are batched per 64-byte instruction line — sound only because the
   batch is *provably* observation-equivalent: the head fetch of each line
   runs as a real in-order probe (the only one that can reach the shared
   L2), and the follow-on fetches are guaranteed IL1 hits whose state
   effects commute with interleaved data accesses (IL1 shares no state
   with DL1/L2; cycles and instret are sums). See [exec_block] and
   [Cache.repeat_hits]. The contract (docs/INTERP.md) is that [instret],
   [cycles], per-level cache statistics, trap causes and PCs, and all
   architectural state are bit-identical to [Cpu.step]; the differential
   fuzzer (test/test_engines.ml) and the kernel parity tests enforce it.

   Whenever a block cannot be run exactly — PCC that does not cover the
   whole block, fuel that would expire mid-block, an undecodable entry —
   the engine falls back to [Cpu.step] for one instruction, which is
   always exact. Invalidation (context switch, exec, munmap/mprotect via
   the pmap generation) is the caller's job: see [invalidate] and the
   [map_gen] argument. *)

module Cap = Cheri_cap.Cap
module Perms = Cheri_cap.Perms
module Cache = Cheri_tagmem.Cache
module Tagmem = Cheri_tagmem.Tagmem

let page_shift = Cheri_tagmem.Phys.page_shift
let page_mask = Cheri_tagmem.Phys.page_size - 1

(* How a block hands control back to the dispatch loop. *)
type exit_ =
  | Fall                   (* fall through to entry + 4*ilen *)
  | Jump of int            (* taken branch/jump within the current PCC *)
  | Jump_pcc of Cap.t      (* capability jump: replace PCC wholesale *)
  | Stopped of Cpu.stop    (* syscall/rt upcall; PC already committed *)

(* Block body: accounting is *batched* per I-cache line instead of being
   inlined into every closure. [sem] holds pure-semantics closures;
   [groups] partitions the body indices into maximal runs that share one
   64-byte instruction line (the entry pc is fixed per block, so the line
   phase is static); [basesum.(i)] is the sum of base cycles of body insns
   [0, i). Per group, the head instruction does the one real
   [Cache.ifetch] probe — the only probe that can reach the L2 — and every
   follow-on fetch in the line is a guaranteed IL1 hit whose effects
   (clock, LRU stamp, hit count, one cycle) are committed in a single
   batch at group end, or partially on a mid-group trap. See
   [Cache.repeat_hits] for why the batch is observationally identical. *)
type sem_body = {
  sem : (Cpu.ctx -> unit) array;
  groups : int array;                  (* (start lsl 16) lor length, per line *)
  basesum : int array;                 (* prefix sums of Insn.base_cycles *)
}

type block = {
  b_entry : int;
  b_ilen : int;                        (* instructions incl. terminator *)
  b_body : sem_body;                   (* straight-line prefix *)
  (* Entry guard for tier-2 (guarded) elision facts. The body bakes in the
     union of the unconditional mask and the guarded mask; it may only run
     when every predicate holds on the *entry-time* register state, so the
     engine evaluates the conjunction at each acceptance site (dispatch,
     chained fall/jump, capability jump) as part of [enterable]. A
     failing guard falls back to the exact single-step path — guards gate
     performance, never correctness. Empty for blocks with no guarded
     facts, which therefore pay nothing. *)
  b_guard : Facts.gpred array;
  b_term : (Cpu.ctx -> exit_) option;  (* absent: block ended at max size
                                          or at the edge of decoded code *)
  (* Chain links. Patched lazily the first time the corresponding exit
     resolves; [None] / a stale key just means "go through the hashtable".
     Links point at blocks in the same table, so every invalidation path —
     [invalidate], [set_facts], a [map_gen] bump — severs them
     structurally by resetting the table: a link can only be reached
     through a block the reset just dropped. *)
  mutable b_fall : block option;       (* successor at entry + 4*ilen *)
  (* Monomorphic inline cache for [Jump] exits (taken branches, J/Jal and
     the register-indirect Jr/Jalr): last target pc and its block. *)
  mutable b_jump_key : int;
  mutable b_jump : block option;
  mutable b_jump_misses : int;
  (* Same, for [Jump_pcc] exits (CJR/CJALR through the capability GOT),
     keyed by the target capability's address. *)
  mutable b_cjump_key : int;
  mutable b_cjump : block option;
  mutable b_cjump_misses : int;
}

type t = {
  blocks : (int, block) Hashtbl.t;     (* entry pc -> decoded block *)
  mutable map_gen : int;               (* pmap generation at last flush *)
  (* Check-elision facts (lib/analysis/absint.ml). When present, [build]
     compiles memory accesses whose capability check the analysis
     discharged into check-free closures. Facts are keyed exactly like
     blocks (superblock entry pc -> bitmask), so any entry point gets the
     facts proved for *its* straight-line run. *)
  mutable facts : Facts.t option;
  (* Per-run ifetch translate memo (reset on every [run] entry). *)
  mutable cur_vpage : int;
  mutable cur_pbase : int;
  (* [exec_block] scratch state, hosted here so executing a block performs
     zero allocation (no flambda: local refs escaping into the trap
     handler would be heap cells). Execution is not reentrant — closures
     never call back into the engine — so one set per cache suffices.
     [x_i]: index of the instruction in flight; [x_gs]/[x_gcost]/[x_gpa]:
     start index, head-probe cost (-1 = none in flight) and head physical
     address of the line group being executed. *)
  mutable x_i : int;
  mutable x_gs : int;
  mutable x_gcost : int;
  mutable x_gpa : int;
  (* Data-side translate memo: small set-associative software TLBs
     (2 sets x 2 ways, indexed by vpage parity, MRU way first), split
     by access kind because read and write rights (and COW) differ. One
     entry per side thrashes as soon as a loop touches two pages of the
     same kind per iteration — memcpy-style src/dst streams, a buffer plus
     the stack — which is the common shape of the TLS record loops; four
     entries cover those with a two-compare hit path. Valid for one [run]
     only — reset on every entry, like the code-side memo: the kernel
     mutates the pmap only between runs, and the accessed bit a memoized
     hit skips is idempotent (the miss that created the entry already set
     it), so observable state is identical. Layout: set s occupies indices
     2s (MRU) and 2s+1; vpage tag -1 = invalid. *)
  d_rd_vp : int array;
  d_rd_pb : int array;
  d_wr_vp : int array;
  d_wr_pb : int array;
  (* Visibility counters (bench/docs; not part of the parity contract). *)
  mutable built : int;
  mutable flushes : int;
  mutable block_runs : int;
  mutable step_falls : int;
  mutable elided_sites : int;          (* check-free closures compiled *)
  (* Chaining counters (bench/docs; not part of the parity contract). *)
  mutable chain_entries : int;         (* dispatch-loop entries into a chain *)
  mutable chained : int;               (* block->block hops without dispatch *)
  mutable ic_hits : int;               (* inline-cache key matches *)
  mutable ic_misses : int;             (* IC repatches (key mismatch) *)
  mutable ic_mega : int;               (* megamorphic hashtable fallbacks *)
  mutable dtlb_hits : int;             (* data-side software-TLB hits *)
  mutable dtlb_misses : int;           (* ... full translates *)
  (* Dynamic check_cap probe counters (bench/docs; not part of the parity
     contract). Every memory-access closure executed by the engine bumps
     exactly one of these: [checked_probes] when the compiled closure runs
     the capability check, [elided_probes] when the analysis discharged it
     (tier-1 mask or a guarded mask whose entry guard held). Accesses
     executed on the single-step fallback path are not counted — they are
     outside the compiled-block world these counters describe. *)
  mutable checked_probes : int;
  mutable elided_probes : int;
}

let max_block = 64

(* After this many inline-cache misses at one exit, stop repatching: the
   site is megamorphic and the hashtable is the stable answer. *)
let ic_mega_threshold = 8

let create () =
  { blocks = Hashtbl.create 1024;
    map_gen = min_int;
    facts = None;
    cur_vpage = -1; cur_pbase = 0;
    x_i = 0; x_gs = 0; x_gcost = -1; x_gpa = 0;
    d_rd_vp = Array.make 4 (-1); d_rd_pb = Array.make 4 0;
    d_wr_vp = Array.make 4 (-1); d_wr_pb = Array.make 4 0;
    built = 0; flushes = 0; block_runs = 0; step_falls = 0;
    elided_sites = 0;
    chain_entries = 0; chained = 0; ic_hits = 0; ic_misses = 0; ic_mega = 0;
    dtlb_hits = 0; dtlb_misses = 0;
    checked_probes = 0; elided_probes = 0 }

(* Reset the dynamic visibility counters (chain/IC and probe counters).
   Called when the installed fact table changes identity — a new analysis
   epoch — so warm- and cold-run statistics stay comparable: without this a
   long-lived cache would carry IC-miss and probe counts across fact-cache
   invalidations and --analysis-stats would blend epochs. Deliberately NOT
   called from [invalidate]: that runs on every context switch and resetting
   there would zero mid-run accumulation the bench legs rely on. *)
let reset_dyn_counters t =
  t.chain_entries <- 0;
  t.chained <- 0;
  t.ic_hits <- 0;
  t.ic_misses <- 0;
  t.ic_mega <- 0;
  t.dtlb_hits <- 0;
  t.dtlb_misses <- 0;
  t.checked_probes <- 0;
  t.elided_probes <- 0

(* Chain/IC statistics snapshot, for the bench legs and tests.
   [ch_fused_insns] is always 0: the engine runs every body instruction
   through its own closure. The field is kept because the end-to-end
   benchmark (perfbench/workloads.ml) reports it. *)
type chain_stats = {
  ch_entries : int;
  ch_chained : int;
  ch_ic_hits : int;
  ch_ic_misses : int;
  ch_ic_mega : int;
  ch_dtlb_hits : int;
  ch_dtlb_misses : int;
  ch_fused_insns : int;
}

let chain_stats t =
  { ch_entries = t.chain_entries; ch_chained = t.chained;
    ch_ic_hits = t.ic_hits; ch_ic_misses = t.ic_misses;
    ch_ic_mega = t.ic_mega;
    ch_dtlb_hits = t.dtlb_hits; ch_dtlb_misses = t.dtlb_misses;
    ch_fused_insns = 0 }

let dtlb_reset t =
  Array.fill t.d_rd_vp 0 4 (-1);
  Array.fill t.d_wr_vp 0 4 (-1)

(* Drop every decoded block (context switch, exec image replacement).
   Facts are left attached: they are keyed by entry pc against the owning
   process's image, and the kernel re-asserts them via [set_facts] on every
   dispatch (dropping them when the owner or its address space changed). *)
let invalidate t =
  Hashtbl.reset t.blocks;
  t.map_gen <- min_int;
  t.cur_vpage <- -1;
  dtlb_reset t;
  t.flushes <- t.flushes + 1

(* Install (or clear) the elision fact table. Compiled closures bake the
   elision decision in, so any change of table identity flushes the block
   cache. Compared by physical identity: the kernel calls this once per
   dispatch with the same table, which must not thrash the cache. *)
let set_facts t facts =
  let same =
    match t.facts, facts with
    | None, None -> true
    | Some a, Some b -> a == b
    | _ -> false
  in
  if not same then begin
    t.facts <- facts;
    reset_dyn_counters t;
    if Hashtbl.length t.blocks > 0 then begin
      Hashtbl.reset t.blocks;
      t.flushes <- t.flushes + 1
    end
  end

(* Instruction-side translate, memoized at page granularity within one
   [run] (the kernel only remaps/evicts pages *between* runs). May raise
   a page fault, exactly as the step engine's fetch translate would. *)
let translate_exec t m pc =
  let vp = pc lsr page_shift in
  if vp = t.cur_vpage then t.cur_pbase + (pc land page_mask)
  else begin
    let pa = m.Cpu.translate pc ~write:false ~exec:true in
    t.cur_vpage <- vp;
    t.cur_pbase <- pa - (pc land page_mask);
    pa
  end

(* Data-side translates. A natural-aligned access of <= 16 bytes
   never crosses a page, so one (vpage -> frame base) pair resolves the
   whole access. Misses go through the real [m.translate], which raises
   page faults exactly as the step engine; hits are sound because nothing
   can invalidate the mapping mid-run (see the field comments). Lookup in
   the 2-set x 2-way array: set by vpage parity, MRU way probed first, a
   second-way hit swaps into the MRU slot, a miss demotes the MRU entry
   and installs in its place. A fault in [m.translate] propagates before
   any array write, so a faulting access never perturbs the TLB. Indices
   are [2*(vp land 1)] and [+1] into length-4 arrays, in range by
   construction. *)
let translate_data t m vps pbs ~write vaddr =
  let vp = vaddr lsr page_shift in
  let s = (vp land 1) * 2 in
  if Array.unsafe_get vps s = vp then begin
    t.dtlb_hits <- t.dtlb_hits + 1;
    Array.unsafe_get pbs s + (vaddr land page_mask)
  end
  else if Array.unsafe_get vps (s + 1) = vp then begin
    t.dtlb_hits <- t.dtlb_hits + 1;
    let pb = Array.unsafe_get pbs (s + 1) in
    Array.unsafe_set vps (s + 1) (Array.unsafe_get vps s);
    Array.unsafe_set pbs (s + 1) (Array.unsafe_get pbs s);
    Array.unsafe_set vps s vp;
    Array.unsafe_set pbs s pb;
    pb + (vaddr land page_mask)
  end
  else begin
    let pa = m.Cpu.translate vaddr ~write ~exec:false in
    t.dtlb_misses <- t.dtlb_misses + 1;
    Array.unsafe_set vps (s + 1) (Array.unsafe_get vps s);
    Array.unsafe_set pbs (s + 1) (Array.unsafe_get pbs s);
    Array.unsafe_set vps s vp;
    Array.unsafe_set pbs s (pa - (vaddr land page_mask));
    pa
  end

let[@inline] translate_rd t m vaddr =
  translate_data t m t.d_rd_vp t.d_rd_pb ~write:false vaddr

let[@inline] translate_wr t m vaddr =
  translate_data t m t.d_wr_vp t.d_wr_pb ~write:true vaddr

(* Fast-path capability probe for the memory closures:
   pure field reads, no exception frame, same predicate as
   [Cap.check_access_at]. On failure the caller re-runs [Cpu.check_cap],
   which performs the architecturally-ordered checks and raises the exact
   fault — so the fast path only ever skips work, never changes it. *)
let cap_ok (c : Cap.t) perm vaddr len =
  c.Cap.tag
  && c.Cap.otype = Cap.otype_unsealed
  && c.Cap.perms land perm = perm
  && vaddr >= c.Cap.base
  && vaddr + len <= c.Cap.top

(* Entry-guard evaluation for tier-2 elision facts. Each predicate is a
   sufficient condition, derived syntactically by the analysis, for every
   guarded check in the block body to pass: the named capability (or the
   DDC, for legacy accesses relative to a general register) must be tagged,
   unsealed, carry the demanded permissions, and cover the hulled footprint
   [[addr + gp_lo, addr + gp_hi]] — which includes every intermediate
   cursor position, so in-body [CIncOffset*] arithmetic cannot strip a tag
   the guard vouched for. Pure field reads, evaluated against the state at
   block entry, before any closure runs. *)
let rec guard_ok_from (ctx : Cpu.ctx) (preds : Facts.gpred array) i n =
  i >= n
  || (let p = Array.unsafe_get preds i in
      let c, a =
        if p.Facts.gp_ddc then ctx.Cpu.ddc, ctx.Cpu.gpr.(p.Facts.gp_reg)
        else
          let c = ctx.Cpu.creg.(p.Facts.gp_reg) in
          (c, c.Cap.addr)
      in
      c.Cap.tag
      && c.Cap.otype = Cap.otype_unsealed
      && c.Cap.perms land p.Facts.gp_perms = p.Facts.gp_perms
      && a + p.Facts.gp_lo >= c.Cap.base
      && a + p.Facts.gp_hi <= c.Cap.top
      && guard_ok_from ctx preds (i + 1) n)

let guard_ok (ctx : Cpu.ctx) (preds : Facts.gpred array) =
  guard_ok_from ctx preds 0 (Array.length preds)

(* Per-instruction accounting prologue of a terminator closure: charge the
   ifetch (through the memoized exec translate) plus base cycles, and
   retire the instruction — exactly what [Cpu.step] does before executing,
   so a faulting terminator still counts, as there. *)
let account t m pc base ctx =
  let ipa = translate_exec t m pc in
  ctx.Cpu.cycles <- ctx.Cpu.cycles + Cache.ifetch m.Cpu.hier ipa + base;
  ctx.Cpu.instret <- ctx.Cpu.instret + 1

(* --- Block compilation ---------------------------------------------------- *)

(* The exact data-side address work of one access: translate through the
   software TLB (which raises page faults exactly as [m.translate]), then
   the real cache probe. Inlined into every memory closure. *)
let[@inline] access_rd t m (ctx : Cpu.ctx) vaddr w =
  let pa = translate_rd t m vaddr in
  ctx.Cpu.cycles <- ctx.Cpu.cycles + Cache.data_access m.Cpu.hier pa w;
  pa

let[@inline] access_wr t m (ctx : Cpu.ctx) vaddr w =
  let pa = translate_wr t m vaddr in
  ctx.Cpu.cycles <- ctx.Cpu.cycles + Cache.data_access m.Cpu.hier pa w;
  pa

(* Straight-line instruction at [pc] -> closure with NO inlined
   accounting: block bodies batch fetch/cycle/instret accounting per
   I-cache line (see [exec_block]), so closures carry pure semantics only.
   The hottest ALU, capability-inspection and memory forms get specialized
   closures (closure dispatch is the dominant cost, so avoiding the second
   match in [Cpu.exec_straight] pays); everything else funnels through the
   one shared semantics function, [Cpu.exec_straight]. The fuzzer
   exercises both paths against the step engine.

   [elide] means the absint facts discharged this instruction's capability
   check: the memory arms then skip the [Cpu.check_cap] probe — a pure test
   with no statistics side effects — so retired instructions, cycles and
   cache counters are untouched, which is what keeps elided runs
   bit-identical.

   Memory arms inline [Cpu.mem_read]/[Cpu.mem_write] with the data-side
   translate memo substituted — check order (capability probe, alignment,
   translate, cache accounting, access) mirrors [Cpu.do_load] and friends
   exactly and must stay in lockstep with them; the differential fuzzer
   cross-checks every path. *)
let compile_sem t m ~pc ~elide insn =
  let check = not elide in
  if elide then t.elided_sites <- t.elided_sites + 1;
  let mem = m.Cpu.mem in
  (* Dynamic probe accounting: one bump per executed memory access, on the
     side the compiled closure actually took ([check] is baked in). *)
  let count_probe () =
    if check then t.checked_probes <- t.checked_probes + 1
    else t.elided_probes <- t.elided_probes + 1
  in
  match insn with
  | Insn.Li (rd, v) -> fun ctx -> Cpu.wr_gpr ctx rd v
  | Insn.Move (rd, rs) -> fun ctx -> Cpu.wr_gpr ctx rd (Cpu.rd_gpr ctx rs)
  | Insn.Addu (rd, rs, rt) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cpu.rd_gpr ctx rs + Cpu.rd_gpr ctx rt)
  | Insn.Addiu (rd, rs, i) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cpu.rd_gpr ctx rs + i)
  | Insn.Subu (rd, rs, rt) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cpu.rd_gpr ctx rs - Cpu.rd_gpr ctx rt)
  | Insn.Mul (rd, rs, rt) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cpu.rd_gpr ctx rs * Cpu.rd_gpr ctx rt)
  | Insn.And_ (rd, rs, rt) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cpu.rd_gpr ctx rs land Cpu.rd_gpr ctx rt)
  | Insn.Andi (rd, rs, i) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cpu.rd_gpr ctx rs land i)
  | Insn.Or_ (rd, rs, rt) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cpu.rd_gpr ctx rs lor Cpu.rd_gpr ctx rt)
  | Insn.Ori (rd, rs, i) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cpu.rd_gpr ctx rs lor i)
  | Insn.Xor_ (rd, rs, rt) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cpu.rd_gpr ctx rs lxor Cpu.rd_gpr ctx rt)
  | Insn.Xori (rd, rs, i) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cpu.rd_gpr ctx rs lxor i)
  | Insn.Sll (rd, rs, sh) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cpu.rd_gpr ctx rs lsl sh)
  | Insn.Srl (rd, rs, sh) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cpu.rd_gpr ctx rs lsr sh)
  | Insn.Sra (rd, rs, sh) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cpu.rd_gpr ctx rs asr sh)
  | Insn.Slt (rd, rs, rt) ->
    fun ctx ->
      Cpu.wr_gpr ctx rd (if Cpu.rd_gpr ctx rs < Cpu.rd_gpr ctx rt then 1 else 0)
  | Insn.Slti (rd, rs, i) ->
    fun ctx -> Cpu.wr_gpr ctx rd (if Cpu.rd_gpr ctx rs < i then 1 else 0)
  | Insn.Sltu (rd, rs, rt) ->
    fun ctx ->
      let ua = Cpu.rd_gpr ctx rs lxor min_int
      and ub = Cpu.rd_gpr ctx rt lxor min_int in
      Cpu.wr_gpr ctx rd (if ua < ub then 1 else 0)
  | Insn.Sltiu (rd, rs, i) ->
    fun ctx ->
      let ua = Cpu.rd_gpr ctx rs lxor min_int and ub = i lxor min_int in
      Cpu.wr_gpr ctx rd (if ua < ub then 1 else 0)
  | Insn.Load { w; signed; rd; base = b; off } ->
    fun ctx ->
      count_probe ();
      let vaddr = Cpu.rd_gpr ctx b + off in
      if check && not (cap_ok ctx.Cpu.ddc Perms.load vaddr w) then
        Cpu.check_cap ctx.Cpu.ddc ~reg:(-2) ~perm:Perms.load ~vaddr ~len:w;
      Cpu.check_align vaddr w;
      let pa = access_rd t m ctx vaddr w in
      Cpu.wr_gpr ctx rd
        (if signed then Tagmem.read_int_signed mem pa ~len:w
         else Tagmem.read_int mem pa ~len:w)
  | Insn.Store { w; rs; base = b; off } ->
    fun ctx ->
      count_probe ();
      let vaddr = Cpu.rd_gpr ctx b + off in
      if check && not (cap_ok ctx.Cpu.ddc Perms.store vaddr w) then
        Cpu.check_cap ctx.Cpu.ddc ~reg:(-2) ~perm:Perms.store ~vaddr ~len:w;
      Cpu.check_align vaddr w;
      let pa = access_wr t m ctx vaddr w in
      Tagmem.write_int mem pa ~len:w (Cpu.rd_gpr ctx rs)
  | Insn.CLoad { w; signed; rd; cb; off } ->
    fun ctx ->
      count_probe ();
      let cap = Cpu.rd_creg ctx cb in
      let vaddr = Cap.addr cap + off in
      if check && not (cap_ok cap Perms.load vaddr w) then
        Cpu.check_cap cap ~reg:cb ~perm:Perms.load ~vaddr ~len:w;
      Cpu.check_align vaddr w;
      let pa = access_rd t m ctx vaddr w in
      Cpu.wr_gpr ctx rd
        (if signed then Tagmem.read_int_signed mem pa ~len:w
         else Tagmem.read_int mem pa ~len:w)
  | Insn.CStore { w; rs; cb; off } ->
    fun ctx ->
      count_probe ();
      let cap = Cpu.rd_creg ctx cb in
      let vaddr = Cap.addr cap + off in
      if check && not (cap_ok cap Perms.store vaddr w) then
        Cpu.check_cap cap ~reg:cb ~perm:Perms.store ~vaddr ~len:w;
      Cpu.check_align vaddr w;
      let pa = access_wr t m ctx vaddr w in
      Tagmem.write_int mem pa ~len:w (Cpu.rd_gpr ctx rs)
  | Insn.CLC { cd; cb; off } ->
    fun ctx ->
      count_probe ();
      let cap = Cpu.rd_creg ctx cb in
      let vaddr = Cap.addr cap + off in
      if check && not (cap_ok cap Perms.load vaddr Cap.sizeof) then
        Cpu.check_cap cap ~reg:cb ~perm:Perms.load ~vaddr ~len:Cap.sizeof;
      Cpu.check_align vaddr Cap.sizeof;
      let pa = access_rd t m ctx vaddr Cap.sizeof in
      let loaded = Tagmem.read_cap mem pa in
      let loaded =
        if Perms.has (Cap.perms cap) Perms.load_cap then loaded
        else Cap.clear_tag loaded
      in
      Cpu.wr_creg ctx cd loaded
  | Insn.CSC { cs; cb; off } ->
    fun ctx ->
      count_probe ();
      let cap = Cpu.rd_creg ctx cb in
      let vaddr = Cap.addr cap + off in
      if check && not (cap_ok cap Perms.store vaddr Cap.sizeof) then
        Cpu.check_cap cap ~reg:cb ~perm:Perms.store ~vaddr ~len:Cap.sizeof;
      let v = Cpu.rd_creg ctx cs in
      if Cap.is_tagged v then begin
        if not (Perms.has (Cap.perms cap) Perms.store_cap) then
          Cpu.cap_fault (Cap.Permit_violation Perms.store_cap) ~reg:cb ~vaddr;
        if (not (Perms.has (Cap.perms v) Perms.global))
           && not (Perms.has (Cap.perms cap) Perms.store_local_cap)
        then
          Cpu.cap_fault (Cap.Permit_violation Perms.store_local_cap) ~reg:cb
            ~vaddr
      end;
      Cpu.check_align vaddr Cap.sizeof;
      let pa = access_wr t m ctx vaddr Cap.sizeof in
      Tagmem.write_cap mem pa v
  | Insn.CIncOffsetImm (cd, cb, i) ->
    fun ctx -> Cpu.wr_creg ctx cd (Cap.inc_addr (Cpu.rd_creg ctx cb) i)
  | Insn.CIncOffset (cd, cb, rt) ->
    fun ctx ->
      Cpu.wr_creg ctx cd (Cap.inc_addr (Cpu.rd_creg ctx cb) (Cpu.rd_gpr ctx rt))
  | Insn.CSetAddr (cd, cb, rt) ->
    fun ctx ->
      Cpu.wr_creg ctx cd (Cap.set_addr (Cpu.rd_creg ctx cb) (Cpu.rd_gpr ctx rt))
  | Insn.CClearTag (cd, cb) ->
    fun ctx -> Cpu.wr_creg ctx cd (Cap.clear_tag (Cpu.rd_creg ctx cb))
  | Insn.CMove (cd, cb) ->
    fun ctx -> Cpu.wr_creg ctx cd (Cpu.rd_creg ctx cb)
  | Insn.CGetBase (rd, cb) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cap.base (Cpu.rd_creg ctx cb))
  | Insn.CGetLen (rd, cb) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cap.length (Cpu.rd_creg ctx cb))
  | Insn.CGetAddr (rd, cb) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cap.addr (Cpu.rd_creg ctx cb))
  | Insn.CGetOffset (rd, cb) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cap.offset (Cpu.rd_creg ctx cb))
  | Insn.CGetPerm (rd, cb) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cap.perms (Cpu.rd_creg ctx cb))
  | Insn.CGetTag (rd, cb) ->
    fun ctx ->
      Cpu.wr_gpr ctx rd (if Cap.is_tagged (Cpu.rd_creg ctx cb) then 1 else 0)
  | Insn.CGetType (rd, cb) ->
    fun ctx -> Cpu.wr_gpr ctx rd (Cap.otype (Cpu.rd_creg ctx cb))
  | Insn.Nop -> fun _ctx -> ()
  | insn -> fun ctx -> Cpu.exec_straight m ctx ~pc insn

(* Terminator at [pc] -> exit closure. Mirrors the control arms of
   [Cpu.step] exactly, including the +1 taken-branch cycle, the alignment
   check before any side effect, and the order of tag check / link-register
   write on capability jumps. During block execution [ctx.pcc] is still
   the block-entry PCC, whose non-address fields are exactly those of the
   step engine's PCC at [pc] (set_addr never changes them in bounds), so
   link capabilities built from it are bit-identical. *)
let compile_term t m ~pc insn =
  let base = Insn.base_cycles insn in
  let branch cond target =
    fun ctx ->
      account t m pc base ctx;
      if cond ctx then begin
        Cpu.check_branch_target target;
        ctx.Cpu.cycles <- ctx.Cpu.cycles + 1;
        Jump target
      end
      else Fall
  in
  match insn with
  | Insn.Beq (rs, rt, tg) ->
    branch (fun ctx -> Cpu.rd_gpr ctx rs = Cpu.rd_gpr ctx rt) tg
  | Insn.Bne (rs, rt, tg) ->
    branch (fun ctx -> Cpu.rd_gpr ctx rs <> Cpu.rd_gpr ctx rt) tg
  | Insn.Blez (rs, tg) -> branch (fun ctx -> Cpu.rd_gpr ctx rs <= 0) tg
  | Insn.Bgtz (rs, tg) -> branch (fun ctx -> Cpu.rd_gpr ctx rs > 0) tg
  | Insn.Bltz (rs, tg) -> branch (fun ctx -> Cpu.rd_gpr ctx rs < 0) tg
  | Insn.Bgez (rs, tg) -> branch (fun ctx -> Cpu.rd_gpr ctx rs >= 0) tg
  | Insn.J tg ->
    fun ctx -> account t m pc base ctx; Cpu.check_branch_target tg; Jump tg
  | Insn.Jal tg ->
    fun ctx ->
      account t m pc base ctx;
      Cpu.check_branch_target tg;
      Cpu.wr_gpr ctx Reg.ra (pc + 4);
      Jump tg
  | Insn.Jr rs ->
    fun ctx ->
      account t m pc base ctx;
      let tg = Cpu.rd_gpr ctx rs in
      Cpu.check_branch_target tg;
      Jump tg
  | Insn.Jalr (rd, rs) ->
    fun ctx ->
      account t m pc base ctx;
      let tg = Cpu.rd_gpr ctx rs in
      Cpu.check_branch_target tg;
      Cpu.wr_gpr ctx rd (pc + 4);
      Jump tg
  | Insn.CJR cb ->
    fun ctx ->
      account t m pc base ctx;
      let target = Cpu.rd_creg ctx cb in
      if not (Cap.is_tagged target) then
        Cpu.cap_fault Cap.Tag_violation ~reg:cb ~vaddr:pc;
      Cpu.check_branch_target (Cap.addr target);
      Jump_pcc target
  | Insn.CJAL (cd, tg) ->
    fun ctx ->
      account t m pc base ctx;
      Cpu.check_branch_target tg;
      Cpu.wr_creg ctx cd (Cap.set_addr ctx.Cpu.pcc (pc + 4));
      Jump tg
  | Insn.CJALR (cd, cb) ->
    fun ctx ->
      account t m pc base ctx;
      let target = Cpu.rd_creg ctx cb in
      if not (Cap.is_tagged target) then
        Cpu.cap_fault Cap.Tag_violation ~reg:cb ~vaddr:pc;
      Cpu.check_branch_target (Cap.addr target);
      Cpu.wr_creg ctx cd (Cap.set_addr ctx.Cpu.pcc (pc + 4));
      Jump_pcc target
  | Insn.Syscall ->
    fun ctx ->
      account t m pc base ctx;
      ctx.Cpu.pcc <- Cap.set_addr ctx.Cpu.pcc (pc + 4);
      Stopped Cpu.Stop_syscall
  | Insn.Rt n ->
    fun ctx ->
      account t m pc base ctx;
      ctx.Cpu.pcc <- Cap.set_addr ctx.Cpu.pcc (pc + 4);
      Stopped (Cpu.Stop_rt n)
  | Insn.Break n ->
    fun ctx ->
      account t m pc base ctx;
      Trap.raise_trap (Trap.Break_trap n)
  | _ -> assert false

(* Partition body indices [0, nbody) into maximal runs whose fetch
   addresses share one cache line. Lines are 64 bytes and aligned, so a
   run never crosses a page either; the entry pc is fixed per block, so
   this is static. *)
let make_groups entry nbody =
  if nbody = 0 then [||]
  else begin
    let gs = ref [] in
    let s = ref 0 in
    for j = 1 to nbody do
      if
        j = nbody
        || (entry + (4 * j)) lsr Cache.line_shift
           <> (entry + (4 * (j - 1))) lsr Cache.line_shift
      then begin
        gs := ((!s lsl 16) lor (j - !s)) :: !gs;
        s := j
      end
    done;
    Array.of_list (List.rev !gs)
  end

(* Decode a maximal block starting at [entry]. Returns [None] when even
   the first instruction is outside decoded code: the step fallback then
   reproduces the fetch fault with exact accounting. Build never touches
   translate, caches or counters, so it is invisible to the statistics. *)
let build t m entry =
  (* Unconditional (tier-1) mask, plus the guarded (tier-2) mask whose
     predicates the run loop evaluates at every entry into this block. The
     body bakes in the union; a block with guarded bits only runs when its
     guard holds (else: exact single-step fallback). *)
  let fmask = match t.facts with Some f -> Facts.mask f entry | None -> 0 in
  let gmask, gpreds =
    match t.facts with Some f -> Facts.guarded f entry | None -> (0, [||])
  in
  let emask = fmask lor gmask in
  let insns = ref [] in
  let term = ref None in
  let n = ref 0 in
  (try
     while !term = None && !n < max_block do
       let pc = entry + (4 * !n) in
       let insn = m.Cpu.fetch pc in
       if Insn.is_terminator insn then term := Some (compile_term t m ~pc insn)
       else insns := insn :: !insns;
       incr n
     done
   with Trap.Trap _ -> ());
  if !n = 0 then None
  else begin
    t.built <- t.built + 1;
    let insns = Array.of_list (List.rev !insns) in
    let sem =
      Array.mapi
        (fun i insn ->
           compile_sem t m ~pc:(entry + (4 * i))
             ~elide:((emask lsr i) land 1 = 1) insn)
        insns
    in
    let nbody = Array.length insns in
    let basesum = Array.make (nbody + 1) 0 in
    Array.iteri
      (fun i insn -> basesum.(i + 1) <- basesum.(i) + Insn.base_cycles insn)
      insns;
    let groups = make_groups entry nbody in
    Some { b_entry = entry; b_ilen = !n;
           b_body = { sem; groups; basesum };
           b_guard = (if gmask = 0 then [||] else gpreds);
           b_term = !term;
           b_fall = None;
           b_jump_key = min_int; b_jump = None; b_jump_misses = 0;
           b_cjump_key = min_int; b_cjump = None; b_cjump_misses = 0 }
  end

(* Find the decoded block at [pc], building (and caching) it on demand. *)
let lookup_or_build t m pc =
  match Hashtbl.find t.blocks pc with
  | b -> Some b
  | exception Not_found ->
    (match build t m pc with
     | Some b -> Hashtbl.add t.blocks pc b; Some b
     | None -> None)

(* --- Block execution ------------------------------------------------------- *)

(* The one acceptance predicate, evaluated wherever a block is about to be
   entered — dispatch, chained fall/jump, capability jump:

   - the remaining [fuel] covers the whole block (otherwise the dispatch
     loop single-steps, so a quantum expiring mid-block replays exactly);
   - the hoisted PCC check: one tag/seal/execute/bounds test standing in
     for [b_ilen] per-instruction [check_access_at] calls. If it fails the
     block is NOT necessarily faulty — a PCC whose bounds end mid-block may
     still execute a prefix — so the caller falls back to single-stepping,
     which raises (or not) exactly as the reference engine. [pcc_known]
     skips the tag/seal/execute half when it is already known to hold for
     [ctx.pcc], i.e. across [Bx_next] chain hops, which never touch the
     PCC object (only [Bx_pcc] replaces it, and that path re-runs the full
     check);
   - the block's tier-2 entry guard holds on the current registers. *)
let[@inline] enterable (ctx : Cpu.ctx) b ~fuel ~pcc_known =
  let p = ctx.Cpu.pcc in
  b.b_ilen <= fuel
  && (pcc_known
      || (Cap.is_tagged p
          && (not (Cap.is_sealed p))
          && Perms.has (Cap.perms p) Perms.execute))
  && b.b_entry >= Cap.base p
  && b.b_entry + (4 * b.b_ilen) <= Cap.top p
  && (Array.length b.b_guard = 0 || guard_ok ctx b.b_guard)

(* How a block's execution left the machine. Splitting this out of the
   PCC lets chained runs defer the [set_addr] commit: between two chained
   in-bounds blocks the commit is a pure address rewrite (the target is
   inside the bounds, the bounds are inside the representable window, so
   tag and every other field are untouched) — skipping it and keeping the
   next pc as an integer is bit-exact. *)
type bexit =
  | Bx_next of int        (* continue at pc; ctx.pcc address NOT committed *)
  | Bx_pcc                (* capability jump: ctx.pcc replaced wholesale *)
  | Bx_stop of Cpu.stop   (* syscall/rt/trap; ctx.pcc committed *)

(* Commit the accounting batch for the line group in flight through body
   index [j] inclusive: the head probe's cost, one IL1-hit cycle and one
   retirement per follow-on, their base cycles, and the IL1 repeat batch.
   No-op when no group is in flight ([t.x_gcost < 0]). *)
let commit_sem t m sb (ctx : Cpu.ctx) j =
  if t.x_gcost >= 0 then begin
    let h = m.Cpu.hier in
    let k = j - t.x_gs in
    ctx.Cpu.instret <- ctx.Cpu.instret + k + 1;
    ctx.Cpu.cycles <-
      ctx.Cpu.cycles + t.x_gcost
      + (k * h.Cache.l1_hit_cycles)
      + Array.unsafe_get sb.basesum (j + 1)
      - Array.unsafe_get sb.basesum t.x_gs;
    if k > 0 then Cache.ifetch_repeats h t.x_gpa k;
    t.x_gcost <- -1
  end

(* Execute [b]. The caller guarantees [enterable] held on entry;
   [ctx.pcc]'s *address* may be stale mid-chain (closures bake their pc;
   only the PCC's non-address fields are consulted by the body and
   terminator closures). On a mid-block trap the PCC is materialized at
   the faulting instruction (b_entry + 4*i) of the block that actually
   faulted — never a chain head's — from the entry PCC's non-address
   fields: [enterable] guaranteed every such address is in bounds, and the
   representable window contains the bounds, so the iterated [set_addr]
   commits of the step engine produce exactly this capability.

   Accounting is batched per line group. Exactness argument: within a
   group only the head fetch can miss (and thus probe the L2) — it runs as
   a real, in-order [Cache.ifetch]. Follow-on fetches are guaranteed IL1
   hits; their effects (clock, final LRU stamp, hit count, one cycle each,
   one retirement each) commute with the group's data accesses because
   IL1 shares no state with DL1/L2 and cycles/instret are sums, so
   committing them at group end — or, on a mid-group trap, committing
   exactly the prefix through the faulting instruction (the step engine
   accounts an instruction *before* executing it) — leaves every counter
   and every cache bit identical to the step engine. A page fault on the
   head probe itself commits nothing for the group, again as the step
   engine (translate raises before any accounting). *)
let exec_block t m b (ctx : Cpu.ctx) =
  let entry_pcc = ctx.Cpu.pcc in
  let entry = b.b_entry in
  let sb = b.b_body in
  t.x_i <- 0;
  t.x_gcost <- -1;
  try
    let groups = sb.groups in
    let sem = sb.sem in
    for g = 0 to Array.length groups - 1 do
      let packed = Array.unsafe_get groups g in
      let s = packed lsr 16 in
      t.x_i <- s;
      t.x_gs <- s;
      let pa = translate_exec t m (entry + (4 * s)) in
      t.x_gpa <- pa;
      t.x_gcost <- Cache.ifetch m.Cpu.hier pa;
      let e = s + (packed land 0xffff) - 1 in
      for j = s to e do
        t.x_i <- j;
        (Array.unsafe_get sem j) ctx
      done;
      commit_sem t m sb ctx e
    done;
    match b.b_term with
    | None -> Bx_next (entry + (4 * b.b_ilen))
    | Some term ->
      t.x_i <- b.b_ilen - 1;
      (match term ctx with
       | Fall -> Bx_next (entry + (4 * b.b_ilen))
       | Jump tg -> Bx_next tg
       | Jump_pcc cap ->
         ctx.Cpu.pcc <- cap;
         Bx_pcc
       | Stopped s -> Bx_stop s)
  with
  | Trap.Trap cause ->
    commit_sem t m sb ctx t.x_i;
    ctx.Cpu.pcc <- Cap.set_addr entry_pcc (entry + (4 * t.x_i));
    Bx_stop (Cpu.Stop_trap cause)
  | Cap.Cap_error v ->
    commit_sem t m sb ctx t.x_i;
    let pc = entry + (4 * t.x_i) in
    ctx.Cpu.pcc <- Cap.set_addr entry_pcc pc;
    Bx_stop (Cpu.Stop_trap (Trap.Cap_fault { violation = v; reg = -1; vaddr = pc }))

(* --- Chaining -------------------------------------------------------------- *)

(* Successor block for a [Bx_next pc'] transition out of [b], patching the
   chain link on the way. The fall-through address gets a dedicated direct
   link; every other target goes through the monomorphic inline cache
   (last pc + its block), degrading to a plain hashtable lookup once the
   exit has proved megamorphic. Returns None when the target has no
   decodable block — the chain then exits and the dispatch loop's
   single-step fallback reproduces the fetch fault exactly. *)
let chain_succ t m b pc' =
  if pc' = b.b_entry + (4 * b.b_ilen) then
    match b.b_fall with
    | Some _ as s -> s
    | None ->
      let s = lookup_or_build t m pc' in
      b.b_fall <- s;
      s
  else if b.b_jump_key = pc' then begin
    t.ic_hits <- t.ic_hits + 1;
    b.b_jump
  end
  else if b.b_jump_misses >= ic_mega_threshold then begin
    t.ic_mega <- t.ic_mega + 1;
    lookup_or_build t m pc'
  end
  else begin
    t.ic_misses <- t.ic_misses + 1;
    b.b_jump_misses <- b.b_jump_misses + 1;
    match lookup_or_build t m pc' with
    | Some _ as s ->
      b.b_jump_key <- pc';
      b.b_jump <- s;
      s
    | None -> None
  end

(* Same, for [Bx_pcc] (capability-jump) exits; [pc'] is the address of the
   already-committed target capability. The cache maps pc -> block just
   like the hashtable does; whether the *capability* covers that block is
   re-decided by [enterable] at every chained entry, so two GOT targets
   with equal addresses but different bounds cannot be confused. *)
let cjump_succ t m b pc' =
  if b.b_cjump_key = pc' then begin
    t.ic_hits <- t.ic_hits + 1;
    b.b_cjump
  end
  else if b.b_cjump_misses >= ic_mega_threshold then begin
    t.ic_mega <- t.ic_mega + 1;
    lookup_or_build t m pc'
  end
  else begin
    t.ic_misses <- t.ic_misses + 1;
    b.b_cjump_misses <- b.b_cjump_misses + 1;
    match lookup_or_build t m pc' with
    | Some _ as s ->
      b.b_cjump_key <- pc';
      b.b_cjump <- s;
      s
    | None -> None
  end

(* --- Dispatch loop ---------------------------------------------------------- *)

(* Run until a stop or until [fuel] instructions have executed — same
   contract as [Cpu.run]. [map_gen] is the owning pmap's generation
   counter: a change means pages were unmapped or re-protected, so decoded
   blocks are flushed. Whole blocks run only when [enterable] accepts
   them; otherwise the engine single-steps, which makes mid-block quantum
   stops replay exactly.

   After a block exits, its successor is resolved through the patched
   links / inline caches and entered directly, without returning here for
   a hashtable lookup or a PCC commit. A chain keeps running while the
   successor exists and [enterable] accepts it: the per-chain fuel check
   stops a chain precisely at a chain-internal block boundary when the
   quantum expires there, and when it expires mid-block the dispatch
   loop's single-step path replays the partial block exactly; the guard
   re-validates the facts keying (facts are conditional only on the
   straight-line prefix from the entry, so they hold no matter how control
   arrived). Between chained blocks the PCC address is left stale (see
   [bexit]); it is materialized whenever the chain exits. *)
let run ?(map_gen = 0) t m (ctx : Cpu.ctx) ~fuel =
  if map_gen <> t.map_gen then begin
    if Hashtbl.length t.blocks > 0 then begin
      Hashtbl.reset t.blocks;
      t.flushes <- t.flushes + 1
    end;
    t.map_gen <- map_gen
  end;
  t.cur_vpage <- -1;
  dtlb_reset t;
  let remaining = ref fuel in
  let result = ref None in
  let running = ref true in
  while !running && !remaining > 0 do
    let pc = Cap.addr ctx.Cpu.pcc in
    match lookup_or_build t m pc with
    | Some b when enterable ctx b ~fuel:!remaining ~pcc_known:false ->
      t.chain_entries <- t.chain_entries + 1;
      let cur = ref b in
      let chaining = ref true in
      while !chaining do
        let b = !cur in
        t.block_runs <- t.block_runs + 1;
        remaining := !remaining - b.b_ilen;
        match exec_block t m b ctx with
        | Bx_stop s ->
          result := Some s;
          running := false;
          chaining := false
        | Bx_next pc' ->
          (match chain_succ t m b pc' with
           | Some nb when enterable ctx nb ~fuel:!remaining ~pcc_known:true ->
             t.chained <- t.chained + 1;
             cur := nb
           | _ ->
             ctx.Cpu.pcc <- Cap.set_addr ctx.Cpu.pcc pc';
             chaining := false)
        | Bx_pcc ->
          (match cjump_succ t m b (Cap.addr ctx.Cpu.pcc) with
           | Some nb when enterable ctx nb ~fuel:!remaining ~pcc_known:false ->
             t.chained <- t.chained + 1;
             cur := nb
           | _ -> chaining := false)
      done
    | _ ->
      t.step_falls <- t.step_falls + 1;
      decr remaining;
      (match Cpu.step m ctx with
       | Some s ->
         result := Some s;
         running := false
       | None -> ())
  done;
  !result
