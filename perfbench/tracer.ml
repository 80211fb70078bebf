(* Span recorder and GC-pause consumer for the traced run.

   Spans are recorded by the benchmark around its own calls into the
   simulator's public functions; nothing inside the simulator is
   instrumented. They stay in memory and are written out when the run
   ends. With tracing off, [span] is a plain call. GC pauses come from the
   runtime's own event ring (Runtime_events), read in-process at machine
   and pass boundaries; span timestamps use the same monotonic clock, so
   each pause can be laid over the span that was running when it began. *)

let now () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e9
let enabled = ref false

let spans : Pb_core.span list ref = ref []       (* newest first *)
let stack : int list ref = ref []                 (* open span ids *)
let next_id = ref 0
let machine = ref (-1)

let domain () = (Domain.self () :> int)

let parent () = match !stack with p :: _ -> p | [] -> -1

let record ~id ~name ~parent ~t0 ~t1 ~agg =
  spans :=
    { Pb_core.sp_id = id; sp_name = name; sp_parent = parent;
      sp_machine = !machine; sp_domain = domain (); sp_t0 = t0; sp_t1 = t1;
      sp_agg = agg }
    :: !spans

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

(* Time [f] as a span named [name], child of the innermost open span. The
   id is taken at entry so children can name their parent; the record is
   completed at exit. *)
let span name f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () in
    let parent = parent () in
    let t0 = now () in
    stack := id :: !stack;
    let finish () =
      stack := List.tl !stack;
      record ~id ~name ~parent ~t0 ~t1:(now ()) ~agg:0
    in
    Fun.protect ~finally:finish f
  end

(* The "machine" span: every span opened inside it carries its id. *)
let next_machine = ref 0

let machine_span f =
  if not !enabled then f ()
  else begin
    machine := !next_machine;
    incr next_machine;
    Fun.protect ~finally:(fun () -> machine := -1) (fun () -> span "machine" f)
  end

(* An aggregated child of the innermost open span: [calls] calls whose
   durations sum to [ns]. *)
let agg name ~calls ~ns =
  if !enabled && calls > 0 then begin
    let t0 = now () in
    record ~id:(fresh_id ()) ~name ~parent:(parent ()) ~t0
      ~t1:(Int64.add t0 (Int64.of_int ns)) ~agg:calls
  end

(* Words this domain allocated so far (minor + direct major). *)
let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* --- GC pauses ------------------------------------------------------------- *)

(* A pause is one top-level minor collection or major slice on a domain. *)
type pause = { pa_domain : int; pa_t0 : int64; pa_t1 : int64 }

let pauses : pause list ref = ref []
let lost_events = ref 0
let cursor = ref None
let open_pause : (int * Runtime_events.runtime_phase, int64) Hashtbl.t =
  Hashtbl.create 8

let is_pause = function
  | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
  | _ -> false

let callbacks =
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun d ts ph ->
      if is_pause ph then
        Hashtbl.replace open_pause (d, ph) (Runtime_events.Timestamp.to_int64 ts))
    ~runtime_end:(fun d ts ph ->
      if is_pause ph then
        match Hashtbl.find_opt open_pause (d, ph) with
        | Some t0 ->
          Hashtbl.remove open_pause (d, ph);
          pauses :=
            { pa_domain = d; pa_t0 = t0;
              pa_t1 = Runtime_events.Timestamp.to_int64 ts }
            :: !pauses
        | None -> ())
    ~lost_events:(fun _ n -> lost_events := !lost_events + n)
    ()

let start () =
  enabled := true;
  Runtime_events.start ();
  cursor := Some (Runtime_events.create_cursor None)

(* Drain the event ring; cheap, called at machine and pass boundaries so
   the ring never overflows between reads. *)
let poll () =
  match !cursor with
  | Some c -> ignore (Runtime_events.read_poll c callbacks None)
  | None -> ()

let stop () =
  poll ();
  (match !cursor with
   | Some c -> Runtime_events.free_cursor c
   | None -> ());
  cursor := None;
  Runtime_events.pause ();
  enabled := false

(* Pause time laid over [spans]: each pause is charged to the innermost
   span of its domain that contains its start; pauses outside every span
   are charged to "(none)". Returns (span name, ns) sorted by name. *)
let pause_overlay ~spans pauses =
  let by = Hashtbl.create 16 in
  let add k v =
    Hashtbl.replace by k (v + Option.value ~default:0 (Hashtbl.find_opt by k))
  in
  let spans = List.filter (fun s -> s.Pb_core.sp_agg = 0) spans in
  List.iter
    (fun p ->
      let inner =
        List.fold_left
          (fun best s ->
            if s.Pb_core.sp_domain = p.pa_domain && s.sp_t0 <= p.pa_t0
               && p.pa_t0 < s.sp_t1
            then
              match best with
              | Some b when Pb_core.duration b <= Pb_core.duration s -> best
              | _ -> Some s
            else best)
          None spans
      in
      add
        (match inner with Some s -> s.Pb_core.sp_name | None -> "(none)")
        (Int64.to_int (Int64.sub p.pa_t1 p.pa_t0)))
    pauses;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by [] |> List.sort compare

(* Write every span and pause as one JSON document. *)
let write_file path =
  let oc = open_out path in
  let span_json s =
    Printf.sprintf
      "{\"id\": %d, \"name\": %s, \"parent\": %d, \"machine\": %d, \
       \"domain\": %d, \"start_ns\": %Ld, \"end_ns\": %Ld, \"calls\": %d}"
      s.Pb_core.sp_id (Pb_core.json_string s.sp_name) s.sp_parent s.sp_machine
      s.sp_domain s.sp_t0 s.sp_t1 s.sp_agg
  in
  let pause_json p =
    Printf.sprintf "{\"domain\": %d, \"start_ns\": %Ld, \"end_ns\": %Ld}"
      p.pa_domain p.pa_t0 p.pa_t1
  in
  Printf.fprintf oc "{\"spans\": [\n%s\n], \"gc_pauses\": [\n%s\n], \"lost_events\": %d}\n"
    (String.concat ",\n" (List.rev_map span_json !spans))
    (String.concat ",\n" (List.rev_map pause_json !pauses))
    !lost_events;
  close_out oc
