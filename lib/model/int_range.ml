type t =
  | Singleton of int
  | Arithmetic of { lo : int; hi : int; step : int }
  | Geometric of { lo : int; hi : int; factor : int }
  | Explicit of int list

let singleton n =
  if n < 0 then invalid_arg (Printf.sprintf "Int_range.singleton: %d" n);
  Singleton n

let arithmetic ~lo ~hi ~step =
  if lo < 0 || hi < lo || step <= 0 then
    invalid_arg
      (Printf.sprintf "Int_range.arithmetic: [%d-%d,+%d]" lo hi step);
  Arithmetic { lo; hi; step }

let geometric ~lo ~hi ~factor =
  if lo < 1 || hi < lo || factor <= 1 then
    invalid_arg
      (Printf.sprintf "Int_range.geometric: [%d-%d,*%d]" lo hi factor);
  Geometric { lo; hi; factor }

let explicit = function
  | [] -> invalid_arg "Int_range.explicit: empty"
  | values ->
      if List.exists (fun v -> v < 0) values then
        invalid_arg "Int_range.explicit: negative member";
      Explicit (List.sort_uniq Int.compare values)

(* Successors stop before they would pass [hi], so a range that ends
   near [max_int] never wraps around. *)
let to_seq = function
  | Singleton n -> Seq.return n
  | Arithmetic { lo; hi; step } ->
      let rec from n () =
        Seq.Cons (n, if n > hi - step then Seq.empty else from (n + step))
      in
      from lo
  | Geometric { lo; hi; factor } ->
      let rec from n () =
        Seq.Cons (n, if n > hi / factor then Seq.empty else from (n * factor))
      in
      from lo
  | Explicit values -> List.to_seq values

let to_list = function
  | Explicit values -> values
  | (Singleton _ | Arithmetic _ | Geometric _) as t -> List.of_seq (to_seq t)

let between t ~lo ~hi =
  match t with
  | Arithmetic { lo = first; hi = last; step } ->
      let lo = max lo first and hi = min hi last in
      (* The last member <= hi, then the first member >= lo counted
         down from it, so no intermediate sum can overflow. *)
      let top = first + ((hi - first) / step * step) in
      if lo > hi || top < lo then []
      else
        let bottom = top - ((top - lo) / step * step) in
        let rec down n acc =
          if n < bottom then acc else down (n - step) (n :: acc)
        in
        down top []
  | Singleton _ | Geometric _ | Explicit _ ->
      to_seq t
      |> Seq.drop_while (fun n -> n < lo)
      |> Seq.take_while (fun n -> n <= hi)
      |> List.of_seq

let mem t n =
  match t with
  | Singleton v -> v = n
  | Arithmetic { lo; hi; step } -> n >= lo && n <= hi && (n - lo) mod step = 0
  | Geometric _ | Explicit _ -> Seq.exists (Int.equal n) (to_seq t)

let min_value = function
  | Singleton n -> n
  | Arithmetic { lo; _ } | Geometric { lo; _ } -> lo
  | Explicit values -> List.hd values

let max_value = function
  | Singleton n -> n
  | Arithmetic { lo; hi; step } -> lo + ((hi - lo) / step * step)
  | Geometric { lo; hi; factor } ->
      let rec up n = if n > hi / factor then n else up (n * factor) in
      up lo
  | Explicit values -> List.nth values (List.length values - 1)

let spread t ~count =
  if count < 2 then invalid_arg "Int_range.spread: count must be >= 2";
  (* Rank floor (i (n - 1) / (count - 1)), split so no product can
     overflow however wide the range. *)
  let pick n nth =
    if n <= count then List.init n nth
    else
      let q = (n - 1) / (count - 1) and r = (n - 1) mod (count - 1) in
      List.init count (fun i -> nth ((i * q) + (i * r / (count - 1))))
  in
  match t with
  | Arithmetic { lo; hi; step } ->
      pick (((hi - lo) / step) + 1) (fun k -> lo + (k * step))
  | Singleton _ | Geometric _ | Explicit _ ->
      let members = Array.of_list (to_list t) in
      pick (Array.length members) (Array.get members)

let next_above t n = Seq.find (fun v -> v >= n) (to_seq t)

let of_string text =
  let text = String.trim text in
  let n = String.length text in
  if n < 2 || text.[0] <> '[' || text.[n - 1] <> ']' then
    invalid_arg (Printf.sprintf "Int_range.of_string: %S" text);
  let body = String.trim (String.sub text 1 (n - 2)) in
  let int_of s =
    match int_of_string_opt (String.trim s) with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Int_range.of_string: bad int %S" s)
  in
  match String.split_on_char ',' body with
  | [ single ] when not (String.contains single '-') ->
      singleton (int_of single)
  | [ range; step ] when String.contains range '-' -> (
      let lo, hi =
        match String.index_opt range '-' with
        | Some i ->
            ( int_of (String.sub range 0 i),
              int_of (String.sub range (i + 1) (String.length range - i - 1)) )
        | None -> assert false
      in
      let step = String.trim step in
      match step.[0] with
      | '+' ->
          arithmetic ~lo ~hi
            ~step:(int_of (String.sub step 1 (String.length step - 1)))
      | '*' ->
          geometric ~lo ~hi
            ~factor:(int_of (String.sub step 1 (String.length step - 1)))
      | _ -> invalid_arg (Printf.sprintf "Int_range.of_string: bad step %S" step)
      | exception Invalid_argument _ ->
          invalid_arg (Printf.sprintf "Int_range.of_string: %S" text))
  | parts when List.length parts > 1 && not (String.contains body '-') ->
      explicit (List.map int_of parts)
  | _ -> invalid_arg (Printf.sprintf "Int_range.of_string: %S" text)

let to_string = function
  | Singleton n -> Printf.sprintf "[%d]" n
  | Arithmetic { lo; hi; step } -> Printf.sprintf "[%d-%d,+%d]" lo hi step
  | Geometric { lo; hi; factor } -> Printf.sprintf "[%d-%d,*%d]" lo hi factor
  | Explicit values ->
      "[" ^ String.concat "," (List.map string_of_int values) ^ "]"

let pp ppf t = Format.pp_print_string ppf (to_string t)
