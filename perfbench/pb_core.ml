(* Pure logic of the end-to-end benchmark: order statistics, the tail
   percentile rule, span self-time arithmetic, the metric-name grammar and
   JSON rendering. Nothing here touches the simulator, so the unit tests in
   test_pb_core.ml cover it directly. *)

(* --- Order statistics ------------------------------------------------------ *)

let sorted_copy xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Quartiles by the "exclusive" method of Python's
   [statistics.quantiles(xs, n=4)] (for three samples or more), so the
   benchmark's own spread figures read the same as the ones computed over
   its output. Fewer samples are clamped to the sample range instead of
   extrapolated. *)
let quartiles xs =
  let a = sorted_copy xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Pb_core.quartiles: no samples";
  let at q =
    (* 1-based position (n+1)q *)
    let pos = float_of_int (n + 1) *. q in
    let j = int_of_float pos in
    if j < 1 then a.(0)
    else if j >= n then a.(n - 1)
    else a.(j - 1) +. ((pos -. float_of_int j) *. (a.(j) -. a.(j - 1)))
  in
  (at 0.25, at 0.5, at 0.75)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* Nearest-rank percentile [p] (0 < p <= 100) of a sorted array. *)
let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Pb_core.nearest_rank: no samples";
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

(* The tail a timing may report: the highest of the candidate percentiles
   that still has at least [min_beyond] samples strictly above it. A p95
   over 60 samples rests on three values and is noise; this rule reports
   a lower percentile (or none) instead. Returns (percentile, value,
   samples beyond). *)
let tail_candidates = [ 99.0; 95.0; 90.0; 75.0 ]

let tail_percentile ?(min_beyond = 10) xs =
  if xs = [] then None
  else
    let a = sorted_copy xs in
    List.find_map
      (fun p ->
        let v = nearest_rank a p in
        let beyond = Array.fold_left (fun c x -> if x > v then c + 1 else c) 0 a in
        if beyond >= min_beyond then Some (p, v, beyond) else None)
      tail_candidates

(* --- Spans ----------------------------------------------------------------- *)

(* A span covers [t0, t1) in monotonic nanoseconds. An aggregated span
   ([agg > 0]) stands for [agg] calls whose durations were summed instead
   of recorded one by one (the runtime-builtin dispatcher runs hundreds of
   thousands of times per machine): its [t1 - t0] is that sum, and its
   placement inside the parent is not known, so it is subtracted from the
   parent's self time as a sum rather than as an interval. *)
type span = {
  sp_id : int;
  sp_name : string;
  sp_parent : int;              (* -1 for a root *)
  sp_machine : int;             (* -1 outside any machine *)
  sp_domain : int;
  sp_t0 : int64;
  sp_t1 : int64;
  sp_agg : int;                 (* 0 = interval span *)
}

let duration s = Int64.to_int (Int64.sub s.sp_t1 s.sp_t0)

(* Length of the union of [intervals], each clipped to [lo, hi). *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max lo a and b = min hi b in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, max cb b))
        | Some (ca, cb) -> (total + (cb - ca), Some (a, b)))
      (0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total + (b - a)

(* Self time of every span, in ns, keyed by span id: its duration minus
   the part its children cover (interval children by union, aggregated
   children by sum), never below zero. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.sp_parent >= 0 then
        Hashtbl.replace children s.sp_parent
          (s :: Option.value ~default:[] (Hashtbl.find_opt children s.sp_parent)))
    spans;
  let self = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.sp_id) in
      let ivs, aggs = List.partition (fun c -> c.sp_agg = 0) kids in
      let lo = Int64.to_int s.sp_t0 and hi = Int64.to_int s.sp_t1 in
      let cov =
        covered ~lo ~hi
          (List.map (fun c -> (Int64.to_int c.sp_t0, Int64.to_int c.sp_t1)) ivs)
      in
      let agg = List.fold_left (fun a c -> a + duration c) 0 aggs in
      Hashtbl.replace self s.sp_id (max 0 (duration s - cov - agg)))
    spans;
  self

(* Summed self time per span name, in ns. *)
let self_by_name spans =
  let self = self_times spans in
  let by = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let v = Hashtbl.find self s.sp_id in
      Hashtbl.replace by s.sp_name
        (v + Option.value ~default:0 (Hashtbl.find_opt by s.sp_name)))
    spans;
  by

(* Share of the [root]-named spans' total duration that no child covers. *)
let uncovered_share ~root spans =
  let self = self_times spans in
  let roots = List.filter (fun s -> s.sp_name = root) spans in
  let total = List.fold_left (fun a s -> a + duration s) 0 roots in
  if total = 0 then 0.0
  else
    float_of_int (List.fold_left (fun a s -> a + Hashtbl.find self s.sp_id) 0 roots)
    /. float_of_int total

(* --- Names ----------------------------------------------------------------- *)

(* Metric and workload names: 1-64 characters of letters, digits, '_', '.'
   and '-', starting with a letter or a digit. *)
let valid_name s =
  let n = String.length s in
  let alnum = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false in
  n >= 1 && n <= 64 && alnum s.[0]
  && String.for_all (fun c -> alnum c || c = '_' || c = '.' || c = '-') s

(* --- JSON ------------------------------------------------------------------ *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit a double carries; JSON has no NaN or infinity, so a metric
   that is not finite is a bug in the benchmark and refuses to print. *)
let json_float f =
  if not (Float.is_finite f) then invalid_arg "Pb_core.json_float: not finite";
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

(* The result line: {"correct", "attempted", "failed", "metrics"}. Metric
   names are checked against the grammar here, at the only place that
   publishes them. *)
let result_json ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, value, unit) ->
        if not (valid_name name) then
          invalid_arg ("Pb_core.result_json: bad metric name " ^ name);
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
          (json_float value) (json_string unit))
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)
