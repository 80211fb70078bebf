(* Tagged physical memory.

   One tag bit per capability-sized, capability-aligned 16-byte granule,
   exactly as in CHERI: the tag travels with the granule, is set only by
   capability stores, and is cleared by any data store that touches the
   granule. Capabilities stored to memory are kept in a side table indexed
   by granule; the raw bytes hold the cursor so that data reads of
   capability memory observe the address (as on real hardware, where the
   cursor occupies the low 64 bits of the encoding).

   A machine costs what it touches. The data bytes and the tag bitset are
   private mappings of /dev/zero: creating them commits nothing, untouched
   pages read as zero, and the host OS hands out a page the first time it
   is written. Capability slots come one 4 KiB frame at a time, on the
   frame's first tagged store.

   Layout invariants (see docs/TAGMEM.md):
   - [tagbits] packs one tag bit per granule, LSB-first within each byte,
     and is padded to a whole number of 64-bit words so that range scans
     can test eight bitset bytes (= 1 KiB of memory) per load;
   - bit [g] of [tagbits] set implies that [slots.(frame g)] is a real
     256-slot array holding the stored capability at [slot g]; the bit is
     the ground truth, and cleared slots hold [Cap.null];
   - every store path clears overlapped tag bits *and* their slots before
     touching the raw bytes, so a data write can never leave a stale
     capability reachable. *)

module Cap = Cheri_cap.Cap

type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  bytes : bigstring;              (* simulated RAM *)
  tagbits : bigstring;            (* packed tag bitset, 1 bit per granule *)
  slots : Cap.t array array;      (* frame -> its granules' capabilities *)
  size : int;
}

let granule = Cap.sizeof
let granule_shift = 4
let () = assert (granule = 1 lsl granule_shift)

(* Capability slots are allocated per 4 KiB frame: 256 granules. *)
let frame_granule_shift = 12 - granule_shift
let frame_granules = 1 lsl frame_granule_shift

(* The slot array of every frame that has never held a tag. It has no
   slots, so the bit-implies-slots invariant is what keeps it unwritten. *)
let no_slots : Cap.t array = [||]

(* Native-endian unaligned word access; the [le] wrappers fold to the bare
   load or store on little-endian hosts. *)
external get64 : bigstring -> int -> int64 = "%caml_bigstring_get64u"
external set64 : bigstring -> int -> int64 -> unit = "%caml_bigstring_set64u"
external get32 : bigstring -> int -> int32 = "%caml_bigstring_get32u"
external set32 : bigstring -> int -> int32 -> unit = "%caml_bigstring_set32u"
external get16 : bigstring -> int -> int = "%caml_bigstring_get16u"
external set16 : bigstring -> int -> int -> unit = "%caml_bigstring_set16u"
external swap64 : int64 -> int64 = "%bswap_int64"
external swap32 : int32 -> int32 = "%bswap_int32"
external swap16 : int -> int = "%bswap16"

let[@inline] get64_le b i = if Sys.big_endian then swap64 (get64 b i) else get64 b i
let[@inline] set64_le b i v = set64 b i (if Sys.big_endian then swap64 v else v)
let[@inline] get32_le b i = if Sys.big_endian then swap32 (get32 b i) else get32 b i
let[@inline] set32_le b i v = set32 b i (if Sys.big_endian then swap32 v else v)
let[@inline] get16_le b i = if Sys.big_endian then swap16 (get16 b i) else get16 b i
let[@inline] set16_le b i v = set16 b i (if Sys.big_endian then swap16 v else v)

(* The annotations matter: bigarray access compiles to an inline load only
   when kind and layout are known where it is written. *)
let[@inline] get_u8 (b : bigstring) i = Char.code (Bigarray.Array1.unsafe_get b i)
let[@inline] set_u8 (b : bigstring) i v =
  Bigarray.Array1.unsafe_set b i (Char.unsafe_chr v)

(* A private mapping of /dev/zero: reads of untouched pages see zeros and
   writes get private pages, so an unused region costs no memory. *)
let zero_mapping fd len : bigstring =
  Bigarray.array1_of_genarray
    (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| len |])

let create ~size =
  if size <= 0 || size land (granule - 1) <> 0 then
    invalid_arg "Tagmem.create: size must be a positive multiple of 16";
  let ngranules = size / granule in
  (* Pad the bitset to 64-bit words so word-at-a-time scans never need a
     bounds check of their own. *)
  let nbytes = ((ngranules + 7) lsr 3 + 7) land lnot 7 in
  let nframes = (ngranules + frame_granules - 1) lsr frame_granule_shift in
  let fd = Unix.openfile "/dev/zero" [ Unix.O_RDWR ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  { bytes = zero_mapping fd size;
    tagbits = zero_mapping fd nbytes;
    slots = Array.make nframes no_slots;
    size }

let size t = t.size

(* Cold out-of-range path, kept out of line so [check] stays tiny. *)
let[@inline never] oob addr len =
  invalid_arg (Printf.sprintf "Tagmem: access 0x%x+%d out of range" addr len)

let[@inline] check t addr len =
  (* One fused test: negative addr or len makes [addr lor len] negative. *)
  if (addr lor len) < 0 || addr + len > t.size then oob addr len

(* Addresses are validated non-negative by [check], so the granule index is
   a plain shift (a signed division by 16 would need a fixup branch). *)
let[@inline] granule_of addr = addr lsr granule_shift

(* --- Capability slots ------------------------------------------------------- *)

(* The slot of a tagged granule: its frame's array exists by the invariant. *)
let[@inline] slot t g =
  Array.unsafe_get
    (Array.unsafe_get t.slots (g lsr frame_granule_shift))
    (g land (frame_granules - 1))

let[@inline] slot_clear t g =
  Array.unsafe_set
    (Array.unsafe_get t.slots (g lsr frame_granule_shift))
    (g land (frame_granules - 1)) Cap.null

let[@inline never] new_slots t f =
  let a = Array.make frame_granules Cap.null in
  Array.unsafe_set t.slots f a;
  a

(* Store [c] in granule [g]'s slot, giving the frame its array on its
   first tagged store. The caller sets the tag bit. *)
let[@inline] slot_set t g c =
  let f = g lsr frame_granule_shift in
  let a = Array.unsafe_get t.slots f in
  let a = if a == no_slots then new_slots t f else a in
  Array.unsafe_set a (g land (frame_granules - 1)) c

(* --- Tag bitset primitives ------------------------------------------------ *)

let[@inline] tag_bit t g = get_u8 t.tagbits (g lsr 3) land (1 lsl (g land 7)) <> 0

let[@inline] tag_bit_set t g =
  let i = g lsr 3 in
  set_u8 t.tagbits i (get_u8 t.tagbits i lor (1 lsl (g land 7)))

let[@inline] tag_bit_clear t g =
  let i = g lsr 3 in
  let b = get_u8 t.tagbits i in
  let m = 1 lsl (g land 7) in
  if b land m <> 0 then begin
    set_u8 t.tagbits i (b land lnot m);
    slot_clear t g
  end

(* Does any granule in [g0, g1] carry a tag? Edge bytes are tested under a
   bit mask; interior bytes are skipped eight at a time. *)
let range_has_tags t g0 g1 =
  let b0 = g0 lsr 3 and b1 = g1 lsr 3 in
  if b0 = b1 then
    let mask = ((1 lsl (g1 - g0 + 1)) - 1) lsl (g0 land 7) in
    get_u8 t.tagbits b0 land mask <> 0
  else if get_u8 t.tagbits b0 lsr (g0 land 7) <> 0 then true
  else if get_u8 t.tagbits b1 land ((1 lsl ((g1 land 7) + 1)) - 1) <> 0 then
    true
  else begin
    let found = ref false in
    let bi = ref (b0 + 1) in
    while not !found && !bi < b1 do
      if !bi + 8 <= b1 && get64 t.tagbits !bi = 0L then bi := !bi + 8
      else if get_u8 t.tagbits !bi <> 0 then found := true
      else incr bi
    done;
    !found
  end

(* --- Tags ----------------------------------------------------------------- *)

let get_tag t addr =
  check t addr 1;
  tag_bit t (granule_of addr)

let clear_tag t addr =
  check t addr 1;
  tag_bit_clear t (granule_of addr)

(* Clear the tags of every granule overlapping [addr, addr+len); returns the
   number of tags actually cleared (the allocator's free() accounts these). *)
let clear_tags_covering_count t addr len =
  if len <= 0 then 0
  else begin
    let g0 = granule_of addr and g1 = granule_of (addr + len - 1) in
    if g0 = g1 then begin
      (* Fast path: the access is contained in one granule. *)
      let i = g0 lsr 3 in
      let b = get_u8 t.tagbits i in
      let m = 1 lsl (g0 land 7) in
      if b land m = 0 then 0
      else begin
        set_u8 t.tagbits i (b land lnot m);
        slot_clear t g0;
        1
      end
    end else begin
    let cleared = ref 0 in
    let b0 = g0 lsr 3 and b1 = g1 lsr 3 in
    let bi = ref b0 in
    while !bi <= b1 do
      (* Word fast path: skip eight all-clear bitset bytes at a time. *)
      if !bi + 7 <= b1 && get64 t.tagbits !bi = 0L then bi := !bi + 8
      else begin
        let b = get_u8 t.tagbits !bi in
        if b <> 0 then begin
          let lo = max g0 (!bi lsl 3) and hi = min g1 ((!bi lsl 3) lor 7) in
          let mask = ((1 lsl (hi - lo + 1)) - 1) lsl (lo land 7) in
          if b land mask <> 0 then begin
            for g = lo to hi do
              if b land (1 lsl (g land 7)) <> 0 then begin
                incr cleared;
                slot_clear t g
              end
            done;
            set_u8 t.tagbits !bi (b land lnot mask)
          end
        end;
        incr bi
      end
    done;
    !cleared
    end
  end

let clear_tags_covering t addr len =
  ignore (clear_tags_covering_count t addr len)

(* Which granules in [addr, addr+len) are tagged? Offsets relative to addr.
   Used by the swap subsystem's tag scan. *)
let scan_tags t addr len =
  check t addr len;
  let out = ref [] in
  let g0 = granule_of addr and g1 = granule_of (addr + len - 1) in
  let b0 = g0 lsr 3 and b1 = g1 lsr 3 in
  let bi = ref b0 in
  while !bi <= b1 do
    if !bi + 7 <= b1 && get64 t.tagbits !bi = 0L then bi := !bi + 8
    else begin
      let b = get_u8 t.tagbits !bi in
      if b <> 0 then begin
        let lo = max g0 (!bi lsl 3) and hi = min g1 ((!bi lsl 3) lor 7) in
        for g = lo to hi do
          if b land (1 lsl (g land 7)) <> 0 then
            out := (g * granule - addr) :: !out
        done
      end;
      incr bi
    end
  done;
  List.rev !out

(* --- Data access ----------------------------------------------------------- *)

let read_u8 t addr =
  check t addr 1;
  get_u8 t.bytes addr

let write_u8 t addr v =
  check t addr 1;
  tag_bit_clear t (granule_of addr);
  set_u8 t.bytes addr (v land 0xff)

(* 63-bit OCaml ints are zero-extended into the stored 64-bit pattern, so a
   word store writes exactly the bytes the per-byte loop used to. *)
let int63_mask = 0x7FFF_FFFF_FFFF_FFFFL

let read_int t addr ~len =
  check t addr len;
  match len with
  | 8 -> Int64.to_int (get64_le t.bytes addr)
  | 4 -> Int32.to_int (get32_le t.bytes addr) land 0xFFFF_FFFF
  | 2 -> get16_le t.bytes addr
  | 1 -> get_u8 t.bytes addr
  | _ ->
    let v = ref 0 in
    for i = len - 1 downto 0 do
      v := (!v lsl 8) lor get_u8 t.bytes (addr + i)
    done;
    !v

(* Clear the (at most two) granule tags a small access overlaps, without
   the generality of the range sweep. *)
let[@inline] clear_tags_small t addr last =
  let g0 = addr lsr granule_shift and g1 = last lsr granule_shift in
  tag_bit_clear t g0;
  if g1 <> g0 then tag_bit_clear t g1

let write_int t addr ~len v =
  check t addr len;
  match len with
  | 8 ->
    clear_tags_small t addr (addr + 7);
    set64_le t.bytes addr (Int64.logand (Int64.of_int v) int63_mask)
  | 4 ->
    clear_tags_small t addr (addr + 3);
    set32_le t.bytes addr (Int32.of_int v)
  | 2 ->
    clear_tags_small t addr (addr + 1);
    set16_le t.bytes addr (v land 0xFFFF)
  | 1 ->
    tag_bit_clear t (addr lsr granule_shift);
    set_u8 t.bytes addr (v land 0xFF)
  | _ ->
    clear_tags_covering t addr len;
    for i = 0 to len - 1 do
      set_u8 t.bytes (addr + i) ((v lsr (8 * i)) land 0xff)
    done

(* Sign-extend an integer read of [len] bytes. *)
let read_int_signed t addr ~len =
  let v = read_int t addr ~len in
  let bits = len * 8 in
  if bits >= 63 then v
  else
    let sign = 1 lsl (bits - 1) in
    if v land sign <> 0 then v - (1 lsl bits) else v

(* Copies between the mapping and OCaml bytes, a word at a time. *)
let blit_bytes t ~dst src =
  let len = Bytes.length src in
  check t dst len;
  clear_tags_covering t dst len;
  let i = ref 0 in
  while !i + 8 <= len do
    set64 t.bytes (dst + !i) (Bytes.get_int64_ne src !i);
    i := !i + 8
  done;
  while !i < len do
    set_u8 t.bytes (dst + !i) (Bytes.get_uint8 src !i);
    incr i
  done

let read_bytes t addr len =
  check t addr len;
  let out = Bytes.create len in
  let i = ref 0 in
  while !i + 8 <= len do
    Bytes.set_int64_ne out !i (get64 t.bytes (addr + !i));
    i := !i + 8
  done;
  while !i < len do
    Bytes.set_uint8 out !i (get_u8 t.bytes (addr + !i));
    incr i
  done;
  out

(* Are the [len] bytes at [addr] all zero? Reading an untouched page does
   not commit it. *)
let is_zero t addr len =
  check t addr len;
  let stop = addr + len in
  let i = ref addr in
  while !i + 8 <= stop && get64 t.bytes !i = 0L do i := !i + 8 done;
  while !i < stop && get_u8 t.bytes !i = 0 do incr i done;
  !i >= stop

(* memmove within the mapping: copy forwards when the destination lies
   below the source and backwards otherwise, so overlap is safe. *)
let blit_within b ~src ~dst ~len =
  if dst < src then begin
    let i = ref 0 in
    while !i + 8 <= len do
      set64 b (dst + !i) (get64 b (src + !i));
      i := !i + 8
    done;
    while !i < len do
      set_u8 b (dst + !i) (get_u8 b (src + !i));
      incr i
    done
  end else begin
    let i = ref len in
    while !i >= 8 do
      i := !i - 8;
      set64 b (dst + !i) (get64 b (src + !i))
    done;
    while !i > 0 do
      decr i;
      set_u8 b (dst + !i) (get_u8 b (src + !i))
    done
  end

(* --- Capability access ----------------------------------------------------- *)

let read_cap t addr =
  check t addr granule;
  Cap.check_cap_alignment addr;
  let g = granule_of addr in
  if tag_bit t g then slot t g
  else
    (* Untagged: reconstruct the cursor from the raw bytes; all other
       fields read as a null-derived pattern. *)
    Cap.untagged ~addr:(Int64.to_int (get64_le t.bytes addr))

let write_cap t addr cap =
  check t addr granule;
  Cap.check_cap_alignment addr;
  let g = granule_of addr in
  (* Raw bytes: cursor in the low 8 bytes, a metadata summary above. *)
  set64_le t.bytes addr (Int64.logand (Int64.of_int (Cap.addr cap)) int63_mask);
  set64 t.bytes (addr + 8) 0L;
  if Cap.is_tagged cap then begin
    tag_bit_set t g;
    slot_set t g cap
  end else
    tag_bit_clear t g

(* Copy [len] bytes preserving tags where both source and destination are
   granule-aligned (the capability-aware memcpy of the C runtime). *)
let move t ~src ~dst ~len =
  check t src len; check t dst len;
  if len = 0 || src = dst then ()
  else begin
    let aligned =
      src land (granule - 1) = 0 && dst land (granule - 1) = 0
      && len land (granule - 1) = 0
    in
    let sg0 = granule_of src in
    if aligned && range_has_tags t sg0 (granule_of (src + len - 1)) then begin
      (* Collect source granule caps first so overlapping moves are safe;
         untagged granules leave [Cap.null], which is never tagged. *)
      let n = len / granule in
      let caps = Array.make n Cap.null in
      for i = 0 to n - 1 do
        let g = sg0 + i in
        if tag_bit t g then caps.(i) <- slot t g
      done;
      clear_tags_covering t dst len;
      blit_within t.bytes ~src ~dst ~len;
      let dg0 = granule_of dst in
      for i = 0 to n - 1 do
        let c = caps.(i) in
        if Cap.is_tagged c then begin
          let g = dg0 + i in
          tag_bit_set t g;
          slot_set t g c
        end
      done
    end else begin
      (* No source tags (or an unaligned copy, which strips them): a plain
         overlap-safe byte move plus a destination tag sweep. *)
      clear_tags_covering t dst len;
      blit_within t.bytes ~src ~dst ~len
    end
  end

let fill t addr len byte =
  check t addr len;
  clear_tags_covering t addr len;
  let b = t.bytes and v = byte land 0xff in
  let w = Int64.mul (Int64.of_int v) 0x0101_0101_0101_0101L in
  let stop = addr + len in
  let i = ref addr in
  while !i + 8 <= stop do
    (* Words that already hold the pattern are left alone, so zeroing a
       never-written frame reads the zero page instead of committing one. *)
    if get64 b !i <> w then set64 b !i w;
    i := !i + 8
  done;
  while !i < stop do set_u8 b !i v; incr i done
