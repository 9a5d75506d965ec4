(* aved trace: fetch one completed request's span tree from a running
   serve daemon (the [trace] verb over a head-sampled trace id) and
   render it as a waterfall — tree-indented span names, a time bar
   scaled to the request's total latency, and per-span resource
   attribution (CPU ms, allocated words, owning domain). [--chrome]
   re-exports the same spans through the telemetry trace_event writer
   for chrome://tracing / ui.perfetto.dev; [--json] prints the wire
   document verbatim. *)

module Json = Aved_explain.Json
module Protocol = Aved_server.Protocol
module Telemetry = Aved_telemetry.Telemetry

type span = {
  id : int;
  parent : int;
  name : string;
  start_ms : float;
  dur_ms : float;
  tid : int;
  cpu_ms : float;
  minor_words : float;
  major_words : float;
}

type trace = {
  trace_id : string;
  verb : string;
  outcome : string;
  started_s : float;
  total_ms : float;
  spans_dropped : int;
  counters : (string * int) list;
  spans : span list;
}

(* ------------------------------------------------------------------ *)
(* Wire *)

let rpc ic oc verb params =
  output_string oc (Protocol.request_line verb params);
  output_char oc '\n';
  flush oc;
  match input_line ic with
  | exception End_of_file -> failwith "server closed the connection"
  | line -> (
      match Protocol.response_of_line line with
      | Ok { Protocol.outcome = Ok result; _ } -> result
      | Ok { Protocol.outcome = Error (_, message); _ } ->
          failwith (Printf.sprintf "server error: %s" message)
      | Error message ->
          failwith (Printf.sprintf "unparsable response: %s" message))

let fetch ~endpoint ~trace_id =
  let fd = Top_ui.connect endpoint in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let result =
    rpc ic oc Protocol.Trace [ ("trace_id", Json.String trace_id) ]
  in
  match List.assoc_opt "trace" (Top_ui.obj_fields result) with
  | Some doc -> doc
  | None -> failwith "malformed trace result: no \"trace\" field"

(* ------------------------------------------------------------------ *)
(* Decoding *)

let str json name =
  match Top_ui.field json name with Some (Json.String s) -> s | _ -> ""

let int_field json name =
  match Top_ui.field json name with Some (Json.Int i) -> i | _ -> 0

let decode_span json =
  {
    id = int_field json "id";
    parent = int_field json "parent";
    name = str json "name";
    start_ms = Top_ui.num json "start_ms";
    dur_ms = Top_ui.num json "dur_ms";
    tid = int_field json "tid";
    cpu_ms = Top_ui.num json "cpu_ms";
    minor_words = Top_ui.num json "minor_words";
    major_words = Top_ui.num json "major_words";
  }

let decode doc =
  let counters =
    match Top_ui.field doc "counters" with
    | Some (Json.Obj fields) ->
        List.filter_map
          (fun (k, v) -> match v with Json.Int n -> Some (k, n) | _ -> None)
          fields
    | _ -> []
  in
  let spans =
    match Top_ui.field doc "spans" with
    | Some (Json.List items) -> List.map decode_span items
    | _ -> []
  in
  {
    trace_id = str doc "trace_id";
    verb = str doc "verb";
    outcome = str doc "outcome";
    started_s = Top_ui.num doc "started_s";
    total_ms = Top_ui.num doc "total_ms";
    spans_dropped = int_field doc "spans_dropped";
    counters;
    spans;
  }

(* ------------------------------------------------------------------ *)
(* Waterfall rendering *)

let bar_width = 32

let bar ~total_ms s =
  let b = Bytes.make bar_width '.' in
  if total_ms > 0. then begin
    let pos ms =
      let p = int_of_float (ms /. total_ms *. float_of_int bar_width) in
      Stdlib.min (bar_width - 1) (Stdlib.max 0 p)
    in
    let first = pos s.start_ms in
    let last = Stdlib.max first (pos (s.start_ms +. s.dur_ms) - 1) in
    for i = first to last do
      Bytes.set b i '='
    done
  end;
  Bytes.to_string b

let words w =
  if w >= 1e9 then Printf.sprintf "%.1fGw" (w /. 1e9)
  else if w >= 1e6 then Printf.sprintf "%.1fMw" (w /. 1e6)
  else if w >= 1e3 then Printf.sprintf "%.1fkw" (w /. 1e3)
  else Printf.sprintf "%.0fw" w

(* Depth-first over the parent links: children ordered by start time
   then id, which is also how the collector reports them. A span whose
   parent is missing (possible only if the daemon's span cap was hit)
   is shown at the root with a [?] marker rather than hidden. *)
let render buf t =
  let children = Hashtbl.create 64 in
  let ids = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace ids s.id s) t.spans;
  let orphan s = s.parent <> 0 && not (Hashtbl.mem ids s.parent) in
  List.iter
    (fun s ->
      let key = if orphan s then 0 else s.parent in
      Hashtbl.replace children key
        (s :: (Option.value (Hashtbl.find_opt children key) ~default:[])))
    t.spans;
  let sorted key =
    List.sort
      (fun a b ->
        match Float.compare a.start_ms b.start_ms with
        | 0 -> Int.compare a.id b.id
        | c -> c)
      (Option.value (Hashtbl.find_opt children key) ~default:[])
  in
  Buffer.add_string buf
    (Printf.sprintf "trace %s  verb=%s outcome=%s  total %.2f ms%s\n"
       t.trace_id t.verb t.outcome t.total_ms
       (if t.spans_dropped > 0 then
          Printf.sprintf "  (%d spans dropped)" t.spans_dropped
        else ""));
  Buffer.add_string buf
    (Printf.sprintf "  %-*s %-36s %9s %9s %8s %9s %4s\n" bar_width ""
       "span" "start ms" "dur ms" "cpu ms" "alloc" "dom");
  let rec walk depth s =
    let label =
      Printf.sprintf "%s%s%s"
        (String.concat "" (List.init depth (fun _ -> "  ")))
        (if orphan s then "? " else "")
        s.name
    in
    Buffer.add_string buf
      (Printf.sprintf "  %s %-36s %9.3f %9.3f %8.3f %9s %4d\n"
         (bar ~total_ms:t.total_ms s)
         label s.start_ms s.dur_ms s.cpu_ms
         (words (s.minor_words +. s.major_words))
         s.tid);
    List.iter (walk (depth + 1)) (sorted s.id)
  in
  List.iter (walk 0) (sorted 0);
  if t.counters <> [] then begin
    Buffer.add_string buf "\nrequest-scoped counter deltas:\n";
    List.iter
      (fun (name, v) ->
        Buffer.add_string buf (Printf.sprintf "  %-40s %d\n" name v))
      (List.sort compare t.counters)
  end

(* ------------------------------------------------------------------ *)
(* Chrome export: rebase the spans onto the request's absolute clock
   and reuse the telemetry trace_event writer, the one [--trace FILE]
   writes through. Chrome nests by time containment per tid, which
   matches the parent links here because a child span always runs
   within its parent on the same domain. *)

let write_chrome t path =
  let spans =
    List.map
      (fun s ->
        {
          Telemetry.Trace.id = s.id;
          parent = s.parent;
          name = s.name;
          start_s = t.started_s +. (s.start_ms /. 1e3);
          dur_s = s.dur_ms /. 1e3;
          tid = s.tid;
          cpu_s = s.cpu_ms /. 1e3;
          minor_words = s.minor_words;
          major_words = s.major_words;
        })
      t.spans
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Telemetry.write_chrome_spans spans oc)

(* ------------------------------------------------------------------ *)
(* Entry point *)

let show ~endpoint ~trace_id ~json ~chrome =
  let doc = fetch ~endpoint ~trace_id in
  if json then print_endline (Json.to_string doc)
  else begin
    let t = decode doc in
    let buf = Buffer.create 4096 in
    render buf t;
    print_string (Buffer.contents buf)
  end;
  match chrome with
  | None -> ()
  | Some path ->
      write_chrome (decode doc) path;
      Printf.eprintf "wrote %s\n%!" path
