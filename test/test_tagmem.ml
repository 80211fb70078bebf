(* Tests for tagged physical memory, the frame allocator and the caches. *)

module Cap = Cheri_cap.Cap
module Perms = Cheri_cap.Perms
module Tagmem = Cheri_tagmem.Tagmem
module Phys = Cheri_tagmem.Phys
module Cache = Cheri_tagmem.Cache

let mk () = Tagmem.create ~size:(1 lsl 16)

let some_cap ?(base = 0x100) ?(len = 64) () =
  let r = Cap.make_root ~base:0 ~top:(1 lsl 16) () in
  Cap.set_bounds (Cap.set_addr r base) ~len

let test_data_roundtrip () =
  let m = mk () in
  Tagmem.write_int m 0x100 ~len:8 0x1122334455667788;
  Alcotest.(check int) "u64" 0x1122334455667788 (Tagmem.read_int m 0x100 ~len:8);
  Tagmem.write_int m 0x200 ~len:4 0xdeadbeef;
  Alcotest.(check int) "u32" 0xdeadbeef (Tagmem.read_int m 0x200 ~len:4);
  Tagmem.write_u8 m 0x300 0xab;
  Alcotest.(check int) "u8" 0xab (Tagmem.read_u8 m 0x300)

let test_signed_read () =
  let m = mk () in
  Tagmem.write_int m 0x10 ~len:1 0xff;
  Alcotest.(check int) "s8" (-1) (Tagmem.read_int_signed m 0x10 ~len:1);
  Tagmem.write_int m 0x18 ~len:4 0x80000000;
  Alcotest.(check int) "s32" (-2147483648) (Tagmem.read_int_signed m 0x18 ~len:4);
  Tagmem.write_int m 0x20 ~len:2 0x7fff;
  Alcotest.(check int) "s16 positive" 0x7fff (Tagmem.read_int_signed m 0x20 ~len:2)

let test_cap_roundtrip () =
  let m = mk () in
  let c = some_cap () in
  Tagmem.write_cap m 0x400 c;
  Alcotest.(check bool) "tag set" true (Tagmem.get_tag m 0x400);
  let c' = Tagmem.read_cap m 0x400 in
  Alcotest.(check bool) "identical" true (Cap.equal c c')

let test_data_store_clears_tag () =
  let m = mk () in
  Tagmem.write_cap m 0x400 (some_cap ());
  (* Overwriting any byte of the granule with data clears the tag:
     capability integrity. *)
  Tagmem.write_u8 m 0x407 0x42;
  Alcotest.(check bool) "tag cleared" false (Tagmem.get_tag m 0x400);
  let c = Tagmem.read_cap m 0x400 in
  Alcotest.(check bool) "read back untagged" false (Cap.is_tagged c)

let test_untagged_read_sees_cursor () =
  let m = mk () in
  let c = Cap.inc_addr (some_cap ~base:0x100 ~len:64 ()) 8 in
  Tagmem.write_cap m 0x400 c;
  Tagmem.write_u8 m 0x40f 0;  (* strikes the metadata, clears tag *)
  let c' = Tagmem.read_cap m 0x400 in
  Alcotest.(check int) "cursor still visible as data" 0x108 (Cap.addr c')

let test_cap_alignment () =
  let m = mk () in
  Alcotest.check_raises "unaligned write_cap"
    (Cap.Cap_error Cap.Alignment_violation)
    (fun () -> Tagmem.write_cap m 0x404 (some_cap ()))

let test_move_preserves_tags () =
  let m = mk () in
  Tagmem.write_cap m 0x400 (some_cap ());
  Tagmem.write_int m 0x410 ~len:8 77;
  Tagmem.move m ~src:0x400 ~dst:0x800 ~len:32;
  Alcotest.(check bool) "tag moved" true (Tagmem.get_tag m 0x800);
  Alcotest.(check int) "data moved" 77 (Tagmem.read_int m 0x810 ~len:8);
  Alcotest.(check bool) "cap equal" true
    (Cap.equal (some_cap ()) (Tagmem.read_cap m 0x800))

let test_move_unaligned_strips_tags () =
  let m = mk () in
  Tagmem.write_cap m 0x400 (some_cap ());
  Tagmem.move m ~src:0x400 ~dst:0x808 ~len:24;
  Alcotest.(check bool) "dst tag stripped" false (Tagmem.get_tag m 0x808)

(* Overlapping moves exercise the word-granule fast path: capabilities must
   be collected from the source before the destination is rewritten, or an
   overlapping copy reads its own output. *)
let test_move_overlap_aligned_forward () =
  let m = mk () in
  let c0 = some_cap ~base:0x100 () and c1 = some_cap ~base:0x200 () in
  Tagmem.write_cap m 0x400 c0;
  Tagmem.write_cap m 0x410 c1;
  (* memmove with dst = src + 16: the ranges share [0x410, 0x420). *)
  Tagmem.move m ~src:0x400 ~dst:0x410 ~len:32;
  Alcotest.(check bool) "untouched src granule keeps its tag" true
    (Tagmem.get_tag m 0x400);
  Alcotest.(check bool) "cap 0 at dst" true
    (Cap.equal c0 (Tagmem.read_cap m 0x410));
  Alcotest.(check bool) "cap 1 at dst+16" true
    (Cap.equal c1 (Tagmem.read_cap m 0x420))

let test_move_overlap_aligned_backward () =
  let m = mk () in
  let c0 = some_cap ~base:0x100 () and c1 = some_cap ~base:0x200 () in
  Tagmem.write_cap m 0x410 c0;
  Tagmem.write_cap m 0x420 c1;
  (* memmove with dst = src - 16. *)
  Tagmem.move m ~src:0x410 ~dst:0x400 ~len:32;
  Alcotest.(check bool) "cap 0 at dst" true
    (Cap.equal c0 (Tagmem.read_cap m 0x400));
  Alcotest.(check bool) "cap 1 at dst+16" true
    (Cap.equal c1 (Tagmem.read_cap m 0x410));
  (* The source-only tail granule was never written, so it keeps c1. *)
  Alcotest.(check bool) "source-only granule keeps its tag" true
    (Tagmem.get_tag m 0x420)

let test_move_overlap_unaligned () =
  let m = mk () in
  let c0 = some_cap ~base:0x100 () in
  Tagmem.write_cap m 0x400 c0;
  Tagmem.write_int m 0x410 ~len:8 0xabcdef;
  (* Unaligned overlapping memmove: the bytes must still be copied with
     memmove semantics, and every destination granule loses its tag. *)
  Tagmem.move m ~src:0x400 ~dst:0x408 ~len:24;
  Alcotest.(check bool) "dst tags stripped" false
    (Tagmem.get_tag m 0x400 || Tagmem.get_tag m 0x410);
  Alcotest.(check int) "cursor bytes shifted to dst"
    (Cap.addr c0) (Tagmem.read_int m 0x408 ~len:8);
  Alcotest.(check int) "trailing data shifted to dst"
    0xabcdef (Tagmem.read_int m 0x418 ~len:8)

let test_scan_tags () =
  let m = mk () in
  Tagmem.write_cap m 0x1000 (some_cap ());
  Tagmem.write_cap m 0x1040 (some_cap ());
  let offs = Tagmem.scan_tags m 0x1000 4096 in
  Alcotest.(check (list int)) "offsets" [ 0x0; 0x40 ] offs

let test_fill_clears_tags () =
  let m = mk () in
  Tagmem.write_cap m 0x500 (some_cap ());
  Tagmem.fill m 0x500 16 0;
  Alcotest.(check bool) "cleared" false (Tagmem.get_tag m 0x500)

(* --- Lazy memory ---------------------------------------------------------------- *)

(* A machine-sized memory: creating it commits nothing, so tests can use
   the top of a 64 MiB address range freely. *)
let big_size = 64 * 1024 * 1024
let big () = Tagmem.create ~size:big_size

let test_untouched_reads_zero () =
  let m = big () in
  List.iter
    (fun a ->
      Alcotest.(check int) (Printf.sprintf "u64 at 0x%x" a) 0
        (Tagmem.read_int m a ~len:8);
      Alcotest.(check int) (Printf.sprintf "u8 at 0x%x" a) 0
        (Tagmem.read_u8 m (a + 7));
      let c = Tagmem.read_cap m a in
      Alcotest.(check bool) (Printf.sprintf "untagged at 0x%x" a) false
        (Cap.is_tagged c);
      Alcotest.(check int) (Printf.sprintf "cursor at 0x%x" a) 0 (Cap.addr c))
    [ 0; 0x1000; big_size / 2; big_size - 4096; big_size - 16 ];
  Alcotest.(check bool) "whole top frame zero" true
    (Tagmem.is_zero m (big_size - 4096) 4096);
  Alcotest.(check (list int)) "no tags anywhere" []
    (Tagmem.scan_tags m 0 big_size)

(* A capability stored into a frame that never held one, then struck by a
   data store of each kind: no capability may stay reachable. *)
let test_fresh_frame_cap_then_data () =
  let top = big_size - 4096 in
  List.iter
    (fun (name, strike) ->
      let m = big () in
      let a = top + 0x40 in
      Tagmem.write_cap m a (some_cap ());
      Alcotest.(check bool) (name ^ ": tagged before") true (Tagmem.get_tag m a);
      strike m a;
      Alcotest.(check bool) (name ^ ": tag gone") false (Tagmem.get_tag m a);
      Alcotest.(check bool) (name ^ ": read untagged") false
        (Cap.is_tagged (Tagmem.read_cap m a));
      Alcotest.(check (list int)) (name ^ ": no tag in frame") []
        (Tagmem.scan_tags m top 4096))
    [ "write_int", (fun m a -> Tagmem.write_int m a ~len:8 7);
      "write_u8 high byte", (fun m a -> Tagmem.write_u8 m (a + 15) 1);
      "odd-length write", (fun m a -> Tagmem.write_int m (a + 9) ~len:3 5);
      "fill", (fun m a -> Tagmem.fill m a 16 0);
      "blit_bytes", (fun m a -> Tagmem.blit_bytes m ~dst:(a + 4) (Bytes.make 4 'x'));
      "untagged move", (fun m a -> Tagmem.move m ~src:0 ~dst:a ~len:16);
      "untagged cap store", (fun m a -> Tagmem.write_cap m a Cap.null) ]

(* Moves and fills across a 4 KiB frame boundary and up to the last byte
   of memory: capability slots live per frame, so a tagged range that
   spans two frames must land in both. *)
let test_move_fill_across_frames () =
  let m = big () in
  let c0 = some_cap ~base:0x100 () and c1 = some_cap ~base:0x200 () in
  (* Source straddles the 0x2000 boundary: one cap each side. *)
  Tagmem.write_cap m 0x1ff0 c0;
  Tagmem.write_cap m 0x2000 c1;
  Tagmem.write_int m 0x1fe8 ~len:8 0x1234;
  (* To the last 48 bytes of memory, a fresh frame with no slots yet. *)
  let dst = big_size - 48 in
  Tagmem.move m ~src:0x1fe0 ~dst ~len:48;
  Alcotest.(check int) "data moved" 0x1234 (Tagmem.read_int m (dst + 8) ~len:8);
  Alcotest.(check bool) "cap 0 at top" true
    (Cap.equal c0 (Tagmem.read_cap m (dst + 16)));
  Alcotest.(check bool) "cap 1 at last granule" true
    (Cap.equal c1 (Tagmem.read_cap m (dst + 32)));
  (* Overlapping move across a boundary, forwards and back. *)
  Tagmem.move m ~src:0x1ff0 ~dst:0x2010 ~len:32;
  Alcotest.(check bool) "forward: cap 0 past boundary" true
    (Cap.equal c0 (Tagmem.read_cap m 0x2010));
  Alcotest.(check bool) "forward: cap 1 further" true
    (Cap.equal c1 (Tagmem.read_cap m 0x2020));
  Alcotest.(check bool) "forward: source-only granule keeps its tag" true
    (Tagmem.get_tag m 0x1ff0);
  Tagmem.move m ~src:0x2010 ~dst:0x1fe0 ~len:32;
  Alcotest.(check bool) "backward: cap 0 below boundary" true
    (Cap.equal c0 (Tagmem.read_cap m 0x1fe0));
  Alcotest.(check bool) "backward: cap 1 below boundary" true
    (Cap.equal c1 (Tagmem.read_cap m 0x1ff0));
  (* An unaligned move across the boundary strips every tag it lands on. *)
  Tagmem.move m ~src:0x1fe0 ~dst:0x2ff8 ~len:32;
  Alcotest.(check (list int)) "unaligned move leaves no tags" []
    (Tagmem.scan_tags m 0x2ff0 48);
  Alcotest.(check int) "unaligned move copies the cursor" (Cap.addr c0)
    (Tagmem.read_int m 0x2ff8 ~len:8);
  (* Fill across the boundary and up to the top of memory. *)
  Tagmem.fill m 0x1fe0 64 0xab;
  Alcotest.(check (list int)) "fill clears tags on both sides" []
    (Tagmem.scan_tags m 0x1fe0 64);
  Alcotest.(check bool) "granule past the fill keeps its tag" true
    (Cap.equal c1 (Tagmem.read_cap m 0x2020));
  Alcotest.(check int) "fill bytes below" 0xabab (Tagmem.read_int m 0x1ffe ~len:2);
  Alcotest.(check int) "fill bytes above" 0xab (Tagmem.read_u8 m 0x201f);
  Alcotest.(check int) "fill stops" 0 (Tagmem.read_u8 m 0x2020);
  Tagmem.fill m (big_size - 4099) 4099 0;
  Alcotest.(check bool) "top fill clears the top cap" false
    (Tagmem.get_tag m (dst + 32));
  Alcotest.(check bool) "top frame zero" true
    (Tagmem.is_zero m (big_size - 4099) 4099);
  Alcotest.check_raises "move past the top"
    (Invalid_argument
       (Printf.sprintf "Tagmem: access 0x%x+%d out of range" (big_size - 16) 32))
    (fun () -> Tagmem.move m ~src:0 ~dst:(big_size - 16) ~len:32);
  Alcotest.check_raises "fill past the top"
    (Invalid_argument
       (Printf.sprintf "Tagmem: access 0x%x+%d out of range" (big_size - 1) 2))
    (fun () -> Tagmem.fill m (big_size - 1) 2 0)

(* Booting the default 64 MiB machine allocates almost nothing: memory,
   tags and capability slots come when first touched. Counted on this one
   domain as every word allocated outside promotion, so it repeats exactly
   from run to run. *)
let test_boot_allocation () =
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = words () in
  let k = Cheri_kernel.Kernel.boot () in
  let w = int_of_float (words () -. w0) in
  Printf.printf "Kernel.boot: %d words\n" w;
  Alcotest.(check bool) (Printf.sprintf "boot allocates %d < 100000 words" w)
    true (w < 100_000);
  let phys = k.Cheri_kernel.Kstate.phys in
  Alcotest.(check int) "every frame but frame 0 free after boot"
    (Phys.total_frames phys - 1) (Phys.free_frames phys);
  Alcotest.(check int) "no frame handed out yet" 0 (Phys.high_water phys)

(* --- Phys ------------------------------------------------------------------- *)

let test_phys_alloc_free () =
  let m = Tagmem.create ~size:(64 * 4096) in
  let p = Phys.create m in
  let before = Phys.free_frames p in
  let f = Phys.alloc_frame p in
  Alcotest.(check int) "one fewer" (before - 1) (Phys.free_frames p);
  Alcotest.(check bool) "frame addr page aligned" true
    (Phys.frame_addr f land 4095 = 0);
  Phys.decref p f;
  Alcotest.(check int) "returned" before (Phys.free_frames p)

let test_phys_refcount () =
  let m = Tagmem.create ~size:(64 * 4096) in
  let p = Phys.create m in
  let f = Phys.alloc_frame p in
  Phys.incref p f;
  Alcotest.(check int) "rc 2" 2 (Phys.refcount p f);
  Phys.decref p f;
  Alcotest.(check int) "rc 1" 1 (Phys.refcount p f);
  let free_before = Phys.free_frames p in
  Phys.decref p f;
  Alcotest.(check int) "freed" (free_before + 1) (Phys.free_frames p)

let test_phys_alloc_zeroes () =
  let m = Tagmem.create ~size:(64 * 4096) in
  let p = Phys.create m in
  let f = Phys.alloc_frame p in
  let pa = Phys.frame_addr f in
  Tagmem.write_cap m pa (some_cap ());
  Tagmem.write_int m (pa + 100) ~len:8 999;
  Phys.decref p f;
  let f2 = Phys.alloc_frame p in
  let pa2 = Phys.frame_addr f2 in
  Alcotest.(check int) "same frame" f f2;
  Alcotest.(check int) "zeroed" 0 (Tagmem.read_int m (pa2 + 100) ~len:8);
  Alcotest.(check bool) "tag gone" false (Tagmem.get_tag m pa2)

(* Freed frames are reused newest first, then fresh frames ascending:
   the order of a free list seeded 1, 2, 3, ... with frees pushed on its
   head, so every physical address matches the eager allocator's. *)
let test_phys_order () =
  let m = Tagmem.create ~size:(64 * 4096) in
  let p = Phys.create m in
  let a = Phys.alloc_frame p in
  let b = Phys.alloc_frame p in
  let c = Phys.alloc_frame p in
  Alcotest.(check (list int)) "fresh ascending" [ 1; 2; 3 ] [ a; b; c ];
  Alcotest.(check int) "high water" 3 (Phys.high_water p);
  Phys.decref p a;
  Phys.decref p c;
  let d = Phys.alloc_frame p in
  let e = Phys.alloc_frame p in
  let f = Phys.alloc_frame p in
  Alcotest.(check (list int)) "freed newest first, then fresh" [ 3; 1; 4 ]
    [ d; e; f ];
  Alcotest.(check int) "high water follows fresh frames" 4 (Phys.high_water p);
  Alcotest.(check int) "free count" (64 - 1 - 4) (Phys.free_frames p)

let test_phys_oom () =
  let m = Tagmem.create ~size:(4 * 4096) in
  let p = Phys.create m in
  (* 3 usable frames (frame 0 reserved). *)
  let _ = Phys.alloc_frame p and _ = Phys.alloc_frame p and _ = Phys.alloc_frame p in
  Alcotest.check_raises "oom" Phys.Out_of_memory (fun () ->
      ignore (Phys.alloc_frame p))

(* --- Cache ------------------------------------------------------------------ *)

let test_cache_hit_after_miss () =
  let c = Cache.create ~name:"t" ~size:1024 ~ways:2 in
  Alcotest.(check bool) "first is miss" false (Cache.access c 0x100 8);
  Alcotest.(check bool) "second is hit" true (Cache.access c 0x100 8);
  Alcotest.(check bool) "same line hit" true (Cache.access c 0x108 8)

let test_cache_eviction () =
  let c = Cache.create ~name:"t" ~size:(2 * 64) ~ways:1 in
  (* Direct-mapped, 2 sets: lines mapping to the same set evict. *)
  ignore (Cache.access c 0 8);
  ignore (Cache.access c 128 8);   (* same set as 0 *)
  Alcotest.(check bool) "evicted" false (Cache.access c 0 8)

let test_cache_straddle () =
  let c = Cache.create ~name:"t" ~size:1024 ~ways:2 in
  ignore (Cache.access c 60 8);    (* straddles two lines *)
  Alcotest.(check bool) "both lines present" true
    (Cache.access c 56 8 && Cache.access c 64 8)

let test_hierarchy_costs () =
  let h = Cache.create_hierarchy () in
  let miss = Cache.data_access h 0x4000 8 in
  let hit = Cache.data_access h 0x4000 8 in
  Alcotest.(check bool) "miss costs more" true (miss > hit);
  Alcotest.(check int) "hit is l1 latency" h.Cache.l1_hit_cycles hit;
  Alcotest.(check bool) "l2 miss counted" true (Cache.l2_misses h >= 1)

let suite =
  [ "data roundtrip", `Quick, test_data_roundtrip;
    "signed reads", `Quick, test_signed_read;
    "cap roundtrip", `Quick, test_cap_roundtrip;
    "data store clears tag", `Quick, test_data_store_clears_tag;
    "untagged read sees cursor", `Quick, test_untagged_read_sees_cursor;
    "cap alignment enforced", `Quick, test_cap_alignment;
    "move preserves tags", `Quick, test_move_preserves_tags;
    "unaligned move strips tags", `Quick, test_move_unaligned_strips_tags;
    "overlapping move forward", `Quick, test_move_overlap_aligned_forward;
    "overlapping move backward", `Quick, test_move_overlap_aligned_backward;
    "overlapping move unaligned", `Quick, test_move_overlap_unaligned;
    "scan tags", `Quick, test_scan_tags;
    "fill clears tags", `Quick, test_fill_clears_tags;
    "untouched memory reads zero", `Quick, test_untouched_reads_zero;
    "fresh frame: cap then data store", `Quick, test_fresh_frame_cap_then_data;
    "move and fill across frames", `Quick, test_move_fill_across_frames;
    "boot allocation gate", `Quick, test_boot_allocation;
    "phys alloc/free", `Quick, test_phys_alloc_free;
    "phys refcount", `Quick, test_phys_refcount;
    "phys alloc zeroes", `Quick, test_phys_alloc_zeroes;
    "phys oom", `Quick, test_phys_oom;
    "phys allocation order", `Quick, test_phys_order;
    "cache hit after miss", `Quick, test_cache_hit_after_miss;
    "cache eviction", `Quick, test_cache_eviction;
    "cache line straddle", `Quick, test_cache_straddle;
    "hierarchy costs", `Quick, test_hierarchy_costs ]
