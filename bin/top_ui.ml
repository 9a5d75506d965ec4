(* aved top: a live terminal dashboard over a running serve daemon.

   Polls the daemon's [stats] verb on an interval and renders per-verb
   latency percentiles (from the server's own log-bucketed histograms),
   interval request rate, queue/search-domain occupancy and the SLO
   error-budget readout. With [--metrics] it instead scrapes the
   [metrics] verb once and prints the Prometheus text body verbatim —
   the same scrape a monitoring agent would do, usable from CI. *)

module Json = Aved_explain.Json
module Api = Aved_api.Api
module Protocol = Aved_server.Protocol

type endpoint = Unix_socket of string | Tcp of { host : string; port : int }

let endpoint_to_string = function
  | Unix_socket path -> path
  | Tcp { host; port } -> Printf.sprintf "%s:%d" host port

let connect = function
  | Unix_socket path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_UNIX path)
       with Unix.Unix_error (err, _, _) ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         failwith
           (Printf.sprintf "cannot connect to %s: %s" path
              (Unix.error_message err)));
      fd
  | Tcp { host; port } ->
      let inet =
        match Unix.inet_addr_of_string host with
        | addr -> addr
        | exception Failure _ -> (
            try (Unix.gethostbyname host).Unix.h_addr_list.(0)
            with Not_found ->
              failwith (Printf.sprintf "cannot resolve host %S" host))
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_INET (inet, port))
       with Unix.Unix_error (err, _, _) ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         failwith
           (Printf.sprintf "cannot connect to %s:%d: %s" host port
              (Unix.error_message err)));
      fd

let rpc ic oc verb =
  output_string oc (Protocol.request_line verb []);
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

(* ------------------------------------------------------------------ *)
(* Stats document accessors — all total (missing fields render as 0 /
   blank) so top keeps working against daemons a schema step away. *)

let obj_fields = function Json.Obj fields -> fields | _ -> []
let field json name = List.assoc_opt name (obj_fields json)
let sub json name = Option.value (field json name) ~default:Json.Null

let num json name =
  match field json name with
  | Some (Json.Int i) -> float_of_int i
  | Some (Json.Float f) -> f
  | _ -> 0.

let flag json name =
  match field json name with Some (Json.Bool b) -> b | _ -> false

(* ------------------------------------------------------------------ *)
(* Rendering *)

let work_verbs = [ "design"; "frontier"; "explain"; "check" ]
let other_verbs = [ "health"; "stats"; "metrics" ]

let ms v = 1000. *. v

let verb_row buf stats verb =
  let counters = sub stats "counters" in
  let histograms = sub stats "histograms" in
  let count = num counters ("server.requests." ^ verb) in
  let h = sub histograms ("server.verb." ^ verb ^ ".seconds") in
  if count > 0. || field histograms ("server.verb." ^ verb ^ ".seconds") <> None
  then
    Buffer.add_string buf
      (Printf.sprintf "  %-10s %8.0f %9.2f %9.2f %9.2f %9.2f\n" verb count
         (ms (num h "mean")) (ms (num h "p50")) (ms (num h "p95"))
         (ms (num h "p99")))

(* [prev] is the previous tick's (wall clock, responses total), for the
   interval request rate; the first tick falls back to the lifetime
   average so the line is never blank. *)
let render ~endpoint ~prev stats =
  let buf = Buffer.create 1024 in
  let counters = sub stats "counters" in
  let gauges = sub stats "gauges" in
  let queue = sub stats "queue" in
  let conns = sub stats "connections" in
  let slo = sub stats "slo" in
  let uptime = num stats "uptime_seconds" in
  let responses =
    num counters "server.responses.ok" +. num counters "server.responses.error"
  in
  let now = Unix.gettimeofday () in
  let rps =
    match prev with
    | Some (t0, r0) when now > t0 -> (responses -. r0) /. (now -. t0)
    | _ -> responses /. Float.max 1e-9 uptime
  in
  Buffer.add_string buf
    (Printf.sprintf "aved top — %s   uptime %.1fs\n" endpoint uptime);
  Buffer.add_string buf
    (Printf.sprintf
       "requests  %8.0f total   %7.1f req/s   errors %.0f   shed %.0f   \
        deadline %.0f\n"
       responses rps
       (num counters "server.responses.error")
       (num queue "shed")
       (num queue "deadline_exceeded"));
  Buffer.add_string buf
    (Printf.sprintf
       "queue     %.0f/%.0f (high water %.0f)   search domains %.0f/%.0f \
        busy   conns %.0f   heap %.1f MW\n"
       (num queue "depth") (num queue "capacity") (num queue "high_water")
       (num gauges "server.pool.busy")
       (num gauges "server.pool.domains")
       (num conns "live")
       (num gauges "server.gc.heap_words" /. 1e6));
  Buffer.add_string buf
    (Printf.sprintf
       "process   cpu %.1fs   open fds %.0f   threads %.0f   traces %.0f \
        sampled (%.0f spans dropped)\n"
       (num gauges "process.cpu.seconds.total")
       (num gauges "process.open.fds")
       (num gauges "process.threads.live")
       (num counters "server.traces.sampled")
       (num counters "server.trace.spans.dropped"));
  Buffer.add_string buf
    (Printf.sprintf
       "slo       target %.3f%%   success %.3f%%   burn %.2f   budget left \
        %5.1f%%   window %.0fs (%.0f reqs)   %s\n"
       (100. *. num slo "target")
       (100. *. num slo "success_rate")
       (num slo "burn_rate")
       (100. *. Float.max 0. (num slo "budget_remaining"))
       (num slo "window_seconds") (num slo "requests")
       (if flag slo "met" then "[OK]" else "[BURNING]"));
  Buffer.add_string buf
    (Printf.sprintf "\n  %-10s %8s %9s %9s %9s %9s\n" "verb" "count" "mean ms"
       "p50 ms" "p95 ms" "p99 ms");
  List.iter (verb_row buf stats) work_verbs;
  List.iter (verb_row buf stats) other_verbs;
  (Buffer.contents buf, (now, responses))

(* ------------------------------------------------------------------ *)
(* Entry points *)

let print_metrics_once endpoint =
  let fd = connect endpoint in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let result = rpc ic oc Protocol.Metrics in
  match Api.metrics_result_of_json result with
  | Error message -> failwith (Printf.sprintf "bad metrics result: %s" message)
  | Ok { Api.body; _ } ->
      print_string body;
      if String.length body = 0 || body.[String.length body - 1] <> '\n' then
        print_newline ()

let run ~endpoint ~interval_s ~iterations =
  let fd = connect endpoint in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let clear = Unix.isatty Unix.stdout in
  let name = endpoint_to_string endpoint in
  let rec loop i prev =
    if iterations = 0 || i < iterations then begin
      let stats = rpc ic oc Protocol.Stats in
      let screen, sample = render ~endpoint:name ~prev stats in
      if clear then print_string "\027[H\027[2J"
      else if i > 0 then print_string "---\n";
      print_string screen;
      flush stdout;
      if iterations = 0 || i + 1 < iterations then
        Unix.sleepf (Float.max 0.05 interval_s);
      loop (i + 1) (Some sample)
    end
  in
  loop 0 None
