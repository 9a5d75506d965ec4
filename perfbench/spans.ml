(* In-memory span recorder for the traced replay: every span has a
   name, start, end, parent and op id, and is written out only when the
   run ends. Spans are recorded here, around calls into the program's
   public functions, never inside the program. *)

type span = {
  id : int;
  parent : int;  (** 0 for an op's root span. *)
  op : int;
  name : string;
  start : float;
  stop : float;
}

type t = {
  mutable enabled : bool;
  mutable spans : span list;
  mutable next_id : int;
  mutable stack : int list;  (** Open spans, innermost first. *)
  mutable op : int;
}

let create ?(enabled = false) () =
  { enabled; spans = []; next_id = 1; stack = []; op = 0 }

let with_span t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> 0 in
    t.stack <- id :: t.stack;
    let start = Common.now () in
    let finish () =
      let stop = Common.now () in
      t.stack <- List.tl t.stack;
      t.spans <- { id; parent; op = t.op; name; start; stop } :: t.spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* One op: a root span named [name] with a fresh op id. *)
let with_op t name f =
  t.op <- t.op + 1;
  with_span t name f

let spans t = List.rev t.spans
let dur s = s.stop -. s.start

(* The layer a span belongs to: the first component of its name. *)
let layer s =
  match String.index_opt s.name '.' with
  | Some i -> String.sub s.name 0 i
  | None -> s.name

(* Self time: a span's duration minus the part its children cover.
   Children of one parent never overlap (the replay is sequential), so
   the covered part is the sum of their durations. *)
let self_times t =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_time s.parent
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt child_time s.parent)))
    t.spans;
  List.map
    (fun s -> (s, dur s -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id)))
    (spans t)

let self_time_by_layer t =
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let l = layer s in
      Hashtbl.replace acc l (self +. Option.value ~default:0. (Hashtbl.find_opt acc l)))
    (self_times t);
  Hashtbl.fold (fun l v acc -> (l, v) :: acc) acc []
  |> List.sort compare

(* Durations of every span called [name], in seconds. *)
let durations t name =
  List.filter_map (fun s -> if s.name = name then Some (dur s) else None) t.spans

(* Puts self time by layer per replayed op and the tracing overhead
   into [t], and prints them beside the untraced replay time. *)
let report spans t ~ops ~untraced_s ~traced_s =
  let per_op = float_of_int (max 1 ops) in
  let by_layer = self_time_by_layer spans in
  List.iter
    (fun l ->
      Common.put t
        ("self." ^ l ^ ".ms_per_op")
        (1e3 *. Option.value ~default:0. (List.assoc_opt l by_layer) /. per_op))
    Common.layer_names;
  Common.put t "trace.overhead_frac" (Common.ratio traced_s untraced_s -. 1.);
  Printf.printf
    "traced replay: %d ops, untraced %.3f ms/op, traced %.3f ms/op\n\
     self time by layer (traced replay, ms per op):\n"
    ops (1e3 *. untraced_s /. per_op) (1e3 *. traced_s /. per_op);
  List.iter (fun (l, s) -> Printf.printf "  %-10s %10.4f\n" l (1e3 *. s /. per_op)) by_layer

(* Chrome trace_event JSON, one complete event per span. *)
let write_chrome t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_char oc ',';
      Printf.fprintf oc
        "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,\"id\":%d,\"parent\":%d}}"
        s.name (s.start *. 1e6) (dur s *. 1e6) s.op s.id s.parent)
    (spans t);
  output_string oc "]}\n"
