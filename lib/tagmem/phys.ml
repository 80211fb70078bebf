(* Physical frame allocator over 4 KiB frames with reference counts (shared
   mappings and copy-on-write hold extra references).

   The kernel draws frames from here for demand paging; the swap subsystem
   returns frames when pages are evicted. There is no boot-time free list:
   frames never handed out are the range above a high-water mark, and freed
   frames go on a LIFO list that is drawn from first. The order is that of
   one free list seeded 1, 2, 3, ... with freed frames pushed on its head:
   freed frames newest first, then fresh frames ascending. *)

let page_size = 4096
let page_shift = 12

type t = {
  mem : Tagmem.t;
  mutable freed : int list;  (* frames returned by [decref], newest first *)
  mutable fresh : int;       (* lowest frame never handed out *)
  mutable free_count : int;
  refcount : int array;
  total : int;
}

let create mem =
  let total = Tagmem.size mem / page_size in
  (* Frame 0 is reserved so that physical address 0 is never handed out. *)
  { mem; freed = []; fresh = 1; free_count = total - 1;
    refcount = Array.make total 0; total }

let mem t = t.mem
let total_frames t = t.total
let free_frames t = t.free_count

(* The highest frame ever handed out (0 before the first allocation).
   Frames above it have never been allocated. *)
let high_water t = t.fresh - 1

exception Out_of_memory

let alloc_frame t =
  let f =
    match t.freed with
    | f :: rest -> t.freed <- rest; f
    | [] ->
      if t.fresh >= t.total then raise Out_of_memory;
      t.fresh <- t.fresh + 1;
      t.fresh - 1
  in
  t.free_count <- t.free_count - 1;
  t.refcount.(f) <- 1;
  Tagmem.fill t.mem (f * page_size) page_size 0;
  f

let incref t f =
  if f <= 0 || f >= t.total || t.refcount.(f) = 0 then invalid_arg "Phys.incref";
  t.refcount.(f) <- t.refcount.(f) + 1

let refcount t f = t.refcount.(f)

(* Drop one reference; frees the frame when the count reaches zero. *)
let decref t f =
  if f <= 0 || f >= t.total || t.refcount.(f) = 0 then invalid_arg "Phys.decref";
  t.refcount.(f) <- t.refcount.(f) - 1;
  if t.refcount.(f) = 0 then begin
    t.freed <- f :: t.freed;
    t.free_count <- t.free_count + 1
  end

let frame_addr f = f * page_size
