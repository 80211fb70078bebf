type t =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let float_text x =
  if not (Float.is_finite x) then
    invalid_arg
      (Printf.sprintf "Json: %s is not a JSON number" (Float.to_string x));
  let s = Printf.sprintf "%.15g" x in
  if Float.equal (float_of_string s) x then s else Printf.sprintf "%.17g" x

let rec holds_obj = function
  | Obj _ -> true
  | List vs -> List.exists holds_obj vs
  | Bool _ | Int _ | Float _ | String _ -> false

let rec render b indent = function
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float x -> Buffer.add_string b (float_text x)
  | String s -> add_string b s
  | List vs -> container b indent ('[', ']') (List.map (fun v -> None, v) vs)
  | Obj ms -> container b indent ('{', '}') (List.map (fun (k, v) -> Some k, v) ms)

and container b indent (op, cl) items =
  let one_line = not (List.exists (fun (_, v) -> holds_obj v) items) in
  let inner = indent ^ "  " in
  Buffer.add_char b op;
  List.iteri
    (fun i (key, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (if one_line then " " else "\n" ^ inner);
      Option.iter (fun k -> add_string b k; Buffer.add_string b ": ") key;
      render b inner v)
    items;
  if items <> [] then
    Buffer.add_string b (if one_line then " " else "\n" ^ indent);
  Buffer.add_char b cl

let to_string v =
  let b = Buffer.create 1024 in
  render b "" v;
  Buffer.add_char b '\n';
  Buffer.contents b
