(** A small JSON value and its renderer, used for every machine-readable
    result the benchmarks write (BENCH_simulator.json). *)

type t =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** [to_string v] renders [v] as JSON text ending in a newline. An array
    or object that holds no object is written on one line, any other one
    member per line, indented by two spaces per level. Strings are escaped
    (double quote, backslash, control characters); floats are written in
    the shortest form that reads back to the same value.
    @raise Invalid_argument on a [nan] or infinite float, which JSON
    cannot represent. *)
