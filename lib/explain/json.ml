type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* The escape of a character the JSON grammar does not allow raw in a
   string: a quote, a backslash or a control character. *)
let escape = function
  | '"' -> "\\\""
  | '\\' -> "\\\\"
  | '\n' -> "\\n"
  | '\r' -> "\\r"
  | '\t' -> "\\t"
  | c -> Printf.sprintf "\\u%04x" (Char.code c)

(* Runs of characters that need no escape go in with one
   [Buffer.add_substring] each. *)
let add_escaped buf s =
  Buffer.add_char buf '"';
  let len = String.length s in
  let start = ref 0 in
  for i = 0 to len - 1 do
    let c = String.unsafe_get s i in
    if c < ' ' || c = '"' || c = '\\' then begin
      Buffer.add_substring buf s !start (i - !start);
      Buffer.add_string buf (escape c);
      start := i + 1
    end
  done;
  Buffer.add_substring buf s !start (len - !start);
  Buffer.add_char buf '"'

(* [Printf.sprintf "%.15g"] and ["%.17g"] end in this primitive;
   calling it directly skips the format interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

(* Shortest representation that round-trips: try 15 significant digits,
   fall back to 17. An integer below 1e15 in magnitude has at most 15
   digits, which "%.15g" prints exactly, as [string_of_int] does; -0.
   keeps its sign. *)
let float_repr f =
  if
    Float.is_integer f
    && Float.abs f < 1e15
    && not (f = 0. && Float.sign_bit f)
  then string_of_int (int_of_float f)
  else
    let s = format_float "%.15g" f in
    if float_of_string s = f then s else format_float "%.17g" f

let rec add_to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_finite f then Buffer.add_string buf (float_repr f)
      else Buffer.add_string buf "null"
  | String s -> add_escaped buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          add_to_buffer buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (key, value) ->
          if i > 0 then Buffer.add_char buf ',';
          add_escaped buf key;
          Buffer.add_char buf ':';
          add_to_buffer buf value)
        fields;
      Buffer.add_char buf '}'

let to_string json =
  let buf = Buffer.create 1024 in
  add_to_buffer buf json;
  Buffer.contents buf

let of_float_option = function Some f -> Float f | None -> Null
let of_string_option = function Some s -> String s | None -> Null
