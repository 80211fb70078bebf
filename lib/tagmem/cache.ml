(* Set-associative cache model with LRU replacement.

   Used purely for cycle accounting: the benchmark platform in the paper is
   an FPGA CHERI-MIPS with 32 KiB L1 caches and a shared 256 KiB L2, and
   Figure 4 reports L2-miss overheads. We model a two-level hierarchy
   (separate I/D L1s over a shared L2) with fixed hit/miss latencies.

   Geometry is required to be power-of-two (sets and line size), so set and
   tag extraction are a mask and a shift, never a division. Tag/LRU state
   is kept in flat arrays indexed [set * ways + way]; the way scan is
   unrolled for the common 4-way (and smaller) configurations. Replacement
   decisions and hit/miss statistics are bit-identical to the reference
   per-set implementation — bench/micro.ml replays a recorded trace against
   both to assert it. *)

type t = {
  name : string;
  sets : int;
  ways : int;
  set_mask : int;     (* sets - 1 *)
  set_shift : int;    (* log2 sets: line tag = line lsr set_shift *)
  line_shift : int;
  (* tags.(set * ways + way) = line tag, or -1 if invalid. *)
  tags : int array;
  (* lru.(set * ways + way): higher = more recently used. *)
  lru : int array;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

let line_size = 64
let line_shift = 6

let log2_exact n =
  let rec go i = if 1 lsl i = n then i else go (i + 1) in
  go 0

let create ~name ~size ~ways =
  let lines = size / line_size in
  let sets = lines / ways in
  if sets <= 0 || sets land (sets - 1) <> 0 then
    invalid_arg "Cache.create: set count must be a positive power of two";
  { name; sets; ways; set_mask = sets - 1; set_shift = log2_exact sets;
    line_shift;
    tags = Array.make (sets * ways) (-1);
    lru = Array.make (sets * ways) 0;
    clock = 0; hits = 0; misses = 0 }

let hits t = t.hits
let misses t = t.misses
let name t = t.name

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0

let flush t = Array.fill t.tags 0 (Array.length t.tags) (-1)

(* Miss: evict the LRU way of the row starting at [base]. *)
let fill_line t base tag =
  t.misses <- t.misses + 1;
  let victim = ref base in
  for i = base + 1 to base + t.ways - 1 do
    if Array.unsafe_get t.lru i < Array.unsafe_get t.lru !victim then victim := i
  done;
  Array.unsafe_set t.tags !victim tag;
  Array.unsafe_set t.lru !victim t.clock;
  false

let[@inline] hit_way t w =
  Array.unsafe_set t.lru w t.clock;
  t.hits <- t.hits + 1;
  true

(* Probe a single line. Returns true on hit; on miss the line is filled. *)
let access_line t line =
  let set = line land t.set_mask in
  let tag = line lsr t.set_shift in
  let base = set * t.ways in
  t.clock <- t.clock + 1;
  if t.ways = 4 then begin
    (* Unrolled scan for the 4-way L1s (covers ways <= 4 via the generic
       arm below; 4 is the hot geometry). *)
    if Array.unsafe_get t.tags base = tag then hit_way t base
    else if Array.unsafe_get t.tags (base + 1) = tag then hit_way t (base + 1)
    else if Array.unsafe_get t.tags (base + 2) = tag then hit_way t (base + 2)
    else if Array.unsafe_get t.tags (base + 3) = tag then hit_way t (base + 3)
    else fill_line t base tag
  end else begin
    let rec find i =
      if i >= base + t.ways then fill_line t base tag
      else if Array.unsafe_get t.tags i = tag then hit_way t i
      else find (i + 1)
    in
    find base
  end

(* Probe an access of [len] bytes at [addr]; true iff all lines hit. *)
let access t addr len =
  let first = addr lsr t.line_shift in
  let last = (addr + (if len > 0 then len - 1 else 0)) lsr t.line_shift in
  if first = last then
    (* Fast path: the common <= 8-byte aligned access touches one line. *)
    access_line t first
  else begin
    let ok = ref true in
    for line = first to last do
      if not (access_line t line) then ok := false
    done;
    !ok
  end

(* --- Two-level hierarchy --------------------------------------------------- *)

type hierarchy = {
  il1 : t;
  dl1 : t;
  l2 : t;
  l1_hit_cycles : int;
  l2_hit_cycles : int;
  dram_cycles : int;
}

(* Geometry from the paper's FPGA platform: 32 KiB L1s, shared 256 KiB L2,
   all set-associative. The sizes are parameters so the cache-study
   ablation (paper 6, "Cache studies") can sweep them. *)
let create_hierarchy ?(l1_size = 32 * 1024) ?(l2_size = 256 * 1024) () =
  { il1 = create ~name:"IL1" ~size:l1_size ~ways:4;
    dl1 = create ~name:"DL1" ~size:l1_size ~ways:4;
    l2 = create ~name:"L2" ~size:l2_size ~ways:8;
    l1_hit_cycles = 1;
    l2_hit_cycles = 9;
    dram_cycles = 36 }

(* Cycle cost of a data access. *)
let data_access h addr len =
  if access h.dl1 addr len then h.l1_hit_cycles
  else if access h.l2 addr len then h.l2_hit_cycles
  else h.dram_cycles

(* Cycle cost of an instruction fetch. *)
let ifetch h addr =
  if access h.il1 addr 4 then h.l1_hit_cycles
  else if access h.l2 addr 4 then h.l2_hit_cycles
  else h.dram_cycles

(* Account [k] repeat probes of a line that is guaranteed to hit: the
   caller just probed the line containing [addr] and nothing has touched
   this cache since (data accesses go to DL1/L2, which share no state with
   IL1). Each of the [k] sequential probes would hit the same way, bump the
   clock and the hit counter, and leave LRU pointing at the final clock —
   only the last LRU write survives, so the batch is observationally
   identical to [k] separate [access_line] calls. Used by the chaining
   block engine to batch straight-line instruction fetches within one
   I-cache line. Falls back to real probes if the line is (unexpectedly)
   absent, which is exact by definition. *)
let repeat_hits t line k =
  if k > 0 then begin
    let set = line land t.set_mask in
    let tag = line lsr t.set_shift in
    let base = set * t.ways in
    let rec find i =
      if i >= base + t.ways then -1
      else if Array.unsafe_get t.tags i = tag then i
      else find (i + 1)
    in
    match find base with
    | -1 -> for _ = 1 to k do ignore (access_line t line) done
    | w ->
      t.clock <- t.clock + k;
      Array.unsafe_set t.lru w t.clock;
      t.hits <- t.hits + k
  end

(* [k] guaranteed-hit instruction fetches of the line holding physical
   address [pa]; returns nothing — the per-fetch cycle cost is the
   constant [h.l1_hit_cycles], which the caller adds itself. *)
let ifetch_repeats h pa k = repeat_hits h.il1 (pa lsr h.il1.line_shift) k

let l2_misses h = misses h.l2

let reset_hierarchy_stats h =
  reset_stats h.il1; reset_stats h.dl1; reset_stats h.l2

let flush_hierarchy h = flush h.il1; flush h.dl1; flush h.l2
