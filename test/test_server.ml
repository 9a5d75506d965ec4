(* End-to-end tests of the aved serve daemon: a real subprocess on a
   temp Unix socket, driven over the wire protocol. The load-bearing
   assertion is byte parity — for every verb with a CLI --json twin,
   the server's "result" field re-serializes to exactly the CLI's
   stdout for the same spec files and request. The suite ends by
   delivering SIGTERM and asserting a clean drain: exit status 0 and
   the socket file unlinked. Runs from _build/default/test. *)

module Protocol = Aved_server.Protocol
module Json = Aved_explain.Json

let aved = Filename.concat (Filename.concat ".." "bin") "main.exe"

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  content

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i =
    i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1))
  in
  scan 0

let run_aved args =
  let dir = Filename.temp_file "aved_srv_cli" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let out = Filename.concat dir "out" in
  let err = Filename.concat dir "err" in
  let status =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote aved) args
         (Filename.quote out) (Filename.quote err))
  in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  Sys.rmdir dir;
  (status, stdout, stderr)

let spec_dir =
  lazy
    (let dir = Filename.temp_file "aved_srv_specs" "" in
     Sys.remove dir;
     let status, _, _ = run_aved (Printf.sprintf "dump-specs %s" dir) in
     if status <> 0 then Alcotest.failf "dump-specs failed with %d" status;
     dir)

let spec name = Filename.concat (Lazy.force spec_dir) name

(* ------------------------------------------------------------------ *)
(* The daemon under test, shared by the whole suite *)

type daemon = { pid : int; socket : string; dir : string }

let daemon = ref None

let start_daemon () =
  let dir = Filename.temp_file "aved_srv" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let socket = Filename.concat dir "aved.sock" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process aved
      [| aved; "serve"; "--socket"; socket; "--jobs"; "2" |]
      Unix.stdin devnull devnull
  in
  Unix.close devnull;
  let d = { pid; socket; dir } in
  daemon := Some d;
  d

let connect_once socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

(* The daemon, started on first use and polled until it accepts. *)
let the_daemon =
  lazy
    (let d = start_daemon () in
     let deadline = Unix.gettimeofday () +. 10. in
     let rec wait () =
       match connect_once d.socket with
       | Some fd ->
           Unix.close fd;
           d
       | None ->
           if Unix.gettimeofday () > deadline then
             Alcotest.fail "server did not come up within 10s";
           Unix.sleepf 0.05;
           wait ()
     in
     wait ())

let with_conn f =
  let d = Lazy.force the_daemon in
  match connect_once d.socket with
  | None -> Alcotest.fail "could not connect to the server"
  | Some fd ->
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> f ic oc)

let rpc ic oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  input_line ic

let response line =
  match Protocol.response_of_line line with
  | Ok r -> r
  | Error m -> Alcotest.failf "unparsable response %S: %s" line m

let server_result line =
  with_conn @@ fun ic oc ->
  match (response (rpc ic oc line)).Protocol.outcome with
  | Ok result -> result
  | Error (_, m) -> Alcotest.failf "server refused %S: %s" line m

let server_error line =
  with_conn @@ fun ic oc ->
  let r = response (rpc ic oc line) in
  match r.Protocol.outcome with
  | Ok result ->
      Alcotest.failf "server accepted %S: %s" line (Json.to_string result)
  | Error (code, message) -> (r.Protocol.response_id, code, message)

let code_name = function
  | Some c -> Protocol.error_code_to_string c
  | None -> "<unknown code>"

let check_code name expected actual =
  Alcotest.(check string)
    name
    (Protocol.error_code_to_string expected)
    (code_name actual)

let spec_params () =
  [
    ("infra_file", Json.String (spec "infrastructure.spec"));
    ("service_file", Json.String (spec "ecommerce.spec"));
  ]

(* ------------------------------------------------------------------ *)
(* Byte parity with the one-shot CLI *)

let check_parity name ~cli ~verb ~params =
  let status, stdout, stderr = run_aved cli in
  if status <> 0 then
    Alcotest.failf "%s: CLI exited %d: %s" name status stderr;
  let result = server_result (Protocol.request_line verb params) in
  Alcotest.(check string)
    (name ^ ": server result = CLI stdout")
    (String.trim stdout) (Json.to_string result)

let test_design_parity () =
  check_parity "design"
    ~cli:
      (Printf.sprintf "design -i %s -s %s --load 1000 --downtime 100 --json"
         (spec "infrastructure.spec") (spec "ecommerce.spec"))
    ~verb:Protocol.Design
    ~params:
      (spec_params ()
      @ [ ("load", Json.Float 1000.); ("downtime_minutes", Json.Float 100.) ])

let test_frontier_parity () =
  check_parity "frontier"
    ~cli:
      (Printf.sprintf "frontier -i %s -s %s --load 1000 --json"
         (spec "infrastructure.spec") (spec "ecommerce.spec"))
    ~verb:Protocol.Frontier
    ~params:(spec_params () @ [ ("load", Json.Float 1000.) ])

let test_explain_parity () =
  check_parity "explain"
    ~cli:
      (Printf.sprintf
         "explain -i %s -s %s --load 1000 --downtime 100 --top 2 --json"
         (spec "infrastructure.spec") (spec "ecommerce.spec"))
    ~verb:Protocol.Explain
    ~params:
      (spec_params ()
      @ [
          ("load", Json.Float 1000.);
          ("downtime_minutes", Json.Float 100.);
          ("top", Json.Int 2);
        ])

let test_check_parity () =
  let status, stdout, stderr =
    run_aved
      (Printf.sprintf "check %s %s --json" (spec "infrastructure.spec")
         (spec "ecommerce.spec"))
  in
  if status <> 0 then
    Alcotest.failf "check: CLI exited %d: %s" status stderr;
  let result =
    server_result
      (Protocol.request_line Protocol.Check
         [
           ( "files",
             Json.List
               [
                 Json.String (spec "infrastructure.spec");
                 Json.String (spec "ecommerce.spec");
               ] );
         ])
  in
  Alcotest.(check string)
    "check: server result = CLI stdout" (String.trim stdout)
    (Json.to_string result)

(* ------------------------------------------------------------------ *)
(* Protocol behavior *)

let test_health () =
  let result = server_result (Protocol.request_line Protocol.Health []) in
  Alcotest.(check string)
    "exact bytes" "{\"schema_version\":2,\"status\":\"ok\"}"
    (Json.to_string result)

let test_id_echo () =
  with_conn @@ fun ic oc ->
  let line =
    Protocol.request_line ~id:(Json.String "req-5") Protocol.Health []
  in
  let r = response (rpc ic oc line) in
  Alcotest.(check string)
    "id echoed" "\"req-5\""
    (Json.to_string r.Protocol.response_id)

let test_stats_shape () =
  let result = server_result (Protocol.request_line Protocol.Stats []) in
  match result with
  | Json.Obj fields ->
      List.iter
        (fun key ->
          Alcotest.(check bool)
            (Printf.sprintf "stats has %S" key)
            true
            (List.mem_assoc key fields))
        [
          "uptime_seconds"; "queue"; "connections"; "coalescing"; "slo";
          "spec_cache"; "counters"; "gauges"; "histograms"; "spans_dropped";
        ];
      (* The coalescing object reports the in-flight registry... *)
      (match List.assoc_opt "coalescing" fields with
      | Some (Json.Obj c) ->
          List.iter
            (fun key ->
              Alcotest.(check bool)
                (Printf.sprintf "coalescing has %S" key)
                true (List.mem_assoc key c))
            [ "enabled"; "inflight"; "coalesced"; "broadcasts" ]
      | _ -> Alcotest.fail "stats coalescing is not an object");
      (* ...and connections the event loop's admission counters. *)
      (match List.assoc_opt "connections" fields with
      | Some (Json.Obj c) ->
          List.iter
            (fun key ->
              Alcotest.(check bool)
                (Printf.sprintf "connections has %S" key)
                true (List.mem_assoc key c))
            [ "live"; "opened"; "closed"; "rejected" ]
      | _ -> Alcotest.fail "stats connections is not an object");
      (* The queue object carries the backpressure counters... *)
      (match List.assoc_opt "queue" fields with
      | Some (Json.Obj q) ->
          List.iter
            (fun key ->
              Alcotest.(check bool)
                (Printf.sprintf "queue has %S" key)
                true (List.mem_assoc key q))
            [ "depth"; "capacity"; "high_water"; "shed"; "deadline_exceeded" ]
      | _ -> Alcotest.fail "stats queue is not an object");
      (* ...and the SLO object the error-budget readout. *)
      (match List.assoc_opt "slo" fields with
      | Some (Json.Obj s) ->
          List.iter
            (fun key ->
              Alcotest.(check bool)
                (Printf.sprintf "slo has %S" key)
                true (List.mem_assoc key s))
            [
              "target"; "window_seconds"; "requests"; "good"; "bad";
              "success_rate"; "error_budget"; "burn_rate"; "budget_remaining";
              "met";
            ]
      | _ -> Alcotest.fail "stats slo is not an object")
  | _ -> Alcotest.fail "stats result is not an object"

let test_metrics_exposition () =
  let result = server_result (Protocol.request_line Protocol.Metrics []) in
  match Aved_api.Api.metrics_result_of_json result with
  | Error m -> Alcotest.failf "metrics result did not decode: %s" m
  | Ok { Aved_api.Api.metrics_content_type; body } ->
      Alcotest.(check string)
        "content type" "text/plain; version=0.0.4" metrics_content_type;
      Alcotest.(check bool) "non-empty" true (String.length body > 0);
      Alcotest.(check bool) "ends with newline" true
        (body.[String.length body - 1] = '\n');
      (* Every family the dashboard relies on is present and typed. *)
      List.iter
        (fun family ->
          Alcotest.(check bool)
            (Printf.sprintf "exposes %s" family)
            true
            (contains body (Printf.sprintf "# TYPE %s " family)))
        [
          "server_slo_target"; "server_slo_success_rate";
          "server_slo_burn_rate"; "server_slo_error_budget_remaining";
          "server_queue_depth"; "server_connections_live";
          "server_requests_health"; "server_spans_dropped";
          "server_gc_heap_words";
        ];
      (* Request histograms render as native histogram families. *)
      Alcotest.(check bool) "request histogram" true
        (contains body "# TYPE server_request_seconds histogram");
      Alcotest.(check bool) "cumulative buckets" true
        (contains body "server_request_seconds_bucket{le=\"+Inf\"}");
      Alcotest.(check bool) "histogram count series" true
        (contains body "server_request_seconds_count")

let test_bad_json () =
  let id, code, message = server_error "this is not json" in
  check_code "code" Protocol.Bad_request code;
  Alcotest.(check string) "null id" "null" (Json.to_string id);
  Alcotest.(check bool) "names the parse failure" true
    (contains message "malformed JSON")

let test_unknown_verb () =
  let _, code, message =
    server_error "{\"schema_version\":1,\"verb\":\"bogus\",\"params\":{}}"
  in
  check_code "code" Protocol.Bad_request code;
  Alcotest.(check bool) "names the verb" true (contains message "bogus")

let test_wrong_schema_version () =
  let _, code, message =
    server_error "{\"schema_version\":3,\"verb\":\"health\",\"params\":{}}"
  in
  check_code "code" Protocol.Bad_request code;
  Alcotest.(check bool) "names the version" true
    (contains message "schema_version 3")

let test_missing_params () =
  let _, code, message =
    server_error (Protocol.request_line Protocol.Design [])
  in
  check_code "code" Protocol.Bad_request code;
  Alcotest.(check bool) "names the param" true (contains message "infra_file")

let test_bad_spec_is_user_error () =
  let _, code, _ =
    server_error
      (Protocol.request_line Protocol.Design
         [
           ("infra_file", Json.String "/nonexistent/infra.spec");
           ("service_file", Json.String (spec "ecommerce.spec"));
           ("load", Json.Float 1000.);
           ("downtime_minutes", Json.Float 100.);
         ])
  in
  check_code "code" Protocol.User_error code

let test_expired_deadline () =
  (* A negative queueing deadline has always already passed, so the
     check fires deterministically regardless of clock granularity. *)
  let id, code, _ =
    server_error
      (Protocol.request_line ~id:(Json.Int 42) ~deadline_ms:(-1.)
         Protocol.Design
         (spec_params ()
         @ [ ("load", Json.Float 1000.); ("downtime_minutes", Json.Float 100.) ]
         ))
  in
  check_code "code" Protocol.Deadline_exceeded code;
  Alcotest.(check string) "id echoed" "42" (Json.to_string id)

let test_blank_lines_skipped () =
  with_conn @@ fun ic oc ->
  output_string oc "\n  \n";
  let line = Protocol.request_line Protocol.Health [] in
  output_string oc line;
  output_char oc '\n';
  flush oc;
  match (response (input_line ic)).Protocol.outcome with
  | Ok _ -> ()
  | Error (_, m) -> Alcotest.failf "health refused after blank lines: %s" m

let test_deep_nesting_rejected () =
  (* A deeply nested line must be a bad request, not a Stack_overflow
     that kills the reader thread and leaks the connection: the same
     connection must still answer a health request afterwards. *)
  with_conn @@ fun ic oc ->
  let bomb = String.make 100_000 '[' in
  let r = response (rpc ic oc bomb) in
  (match r.Protocol.outcome with
  | Ok result ->
      Alcotest.failf "nesting bomb accepted: %s" (Json.to_string result)
  | Error (code, _) -> check_code "code" Protocol.Bad_request code);
  match (response (rpc ic oc (Protocol.request_line Protocol.Health []))).Protocol.outcome with
  | Ok _ -> ()
  | Error (_, m) -> Alcotest.failf "health refused after nesting bomb: %s" m

let test_live_socket_refused () =
  (* A second daemon pointed at the live daemon's socket must refuse to
     steal the endpoint and exit as a user error. *)
  let d = Lazy.force the_daemon in
  let status, _, stderr =
    run_aved (Printf.sprintf "serve --socket %s" (Filename.quote d.socket))
  in
  Alcotest.(check int) "exit code" 1 status;
  Alcotest.(check bool) "names the conflict" true (contains stderr "in use");
  (* The probe must not have disturbed the running daemon. *)
  match
    (response
       (with_conn @@ fun ic oc ->
        rpc ic oc (Protocol.request_line Protocol.Health [])))
      .Protocol.outcome
  with
  | Ok _ -> ()
  | Error (_, m) -> Alcotest.failf "daemon unhealthy after probe: %s" m

let test_concurrent_connections () =
  with_conn @@ fun ic1 oc1 ->
  with_conn @@ fun ic2 oc2 ->
  let line = Protocol.request_line Protocol.Health [] in
  output_string oc1 line;
  output_char oc1 '\n';
  flush oc1;
  output_string oc2 line;
  output_char oc2 '\n';
  flush oc2;
  List.iter
    (fun ic ->
      match (response (input_line ic)).Protocol.outcome with
      | Ok _ -> ()
      | Error (_, m) -> Alcotest.failf "health failed: %s" m)
    [ ic2; ic1 ]

(* ------------------------------------------------------------------ *)
(* The structured request log, against a dedicated constrained daemon *)

(* A private daemon with --log, a one-slot queue and one dispatcher:
   a slow cold design parks the dispatcher, so pipelined health
   requests behind it overflow the queue deterministically and at
   least one is shed. Every request line — answered, shed, malformed —
   must then appear exactly once in the JSON log with monotone stage
   timestamps, and SIGUSR1 must append a snapshot record. *)
let test_request_log () =
  let dir = Filename.temp_file "aved_srv_log" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let socket = Filename.concat dir "aved.sock" in
  let log_path = Filename.concat dir "requests.jsonl" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process aved
      [|
        aved; "serve"; "--socket"; socket; "--jobs"; "1"; "--dispatchers";
        "1"; "--queue"; "1"; "--log"; log_path;
      |]
      Unix.stdin devnull devnull
  in
  Unix.close devnull;
  let cleanup () =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (try Sys.readdir dir with Sys_error _ -> [||]);
    try Sys.rmdir dir with Sys_error _ -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match connect_once socket with
    | Some fd -> fd
    | None ->
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "log daemon did not come up within 10s";
        Unix.sleepf 0.05;
        wait ()
  in
  let fd = wait () in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let healths = 8 in
  let requests = 1 + healths in
  (* One write: the design reaches the lone dispatcher first, then the
     healths behind it hit the one-slot queue while it is still busy. *)
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Protocol.request_line ~id:(Json.Int 1) Protocol.Design
       (spec_params ()
       @ [ ("load", Json.Float 1000.); ("downtime_minutes", Json.Float 100.) ]
       ));
  Buffer.add_char buf '\n';
  for i = 2 to requests do
    Buffer.add_string buf
      (Protocol.request_line ~id:(Json.Int i) Protocol.Health []);
    Buffer.add_char buf '\n'
  done;
  output_string oc (Buffer.contents buf);
  flush oc;
  let shed_seen = ref 0 in
  for _ = 1 to requests do
    match (response (input_line ic)).Protocol.outcome with
    | Ok _ -> ()
    | Error (Some Protocol.Overloaded, _) -> incr shed_seen
    | Error (code, m) ->
        Alcotest.failf "unexpected error %s: %s" (code_name code) m
  done;
  Alcotest.(check bool) "at least one request shed" true (!shed_seen >= 1);
  (* A malformed line must be logged too, under verb "invalid". *)
  (match (response (rpc ic oc "not json")).Protocol.outcome with
  | Ok _ -> Alcotest.fail "malformed line accepted"
  | Error _ -> ());
  Unix.close fd;
  (* SIGUSR1: the accept loop notices within its 250 ms timeout. *)
  Unix.kill pid Sys.sigusr1;
  Unix.sleepf 0.6;
  Unix.kill pid Sys.sigterm;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, _ -> Alcotest.fail "log daemon did not drain cleanly");
  let records =
    read_file log_path |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (fun line ->
           match Aved_api.Json_parse.of_string line with
           | Ok (Json.Obj fields) -> fields
           | Ok _ -> Alcotest.failf "log line is not an object: %s" line
           | Error m -> Alcotest.failf "unparsable log line %S: %s" line m)
  in
  let event fields =
    match List.assoc_opt "event" fields with
    | Some (Json.String e) -> e
    | _ -> Alcotest.fail "log record lacks an event"
  in
  let of_kind k = List.filter (fun r -> event r = k) records in
  Alcotest.(check int) "one start event" 1 (List.length (of_kind "start"));
  Alcotest.(check int) "one stop event" 1 (List.length (of_kind "stop"));
  Alcotest.(check bool) "snapshot dumped" true
    (List.length (of_kind "snapshot") >= 1);
  let reqs = of_kind "request" in
  (* Every request line appears exactly once: the N well-formed ones,
     keyed by their echoed ids, plus the malformed line. *)
  Alcotest.(check int) "one record per request" (requests + 1)
    (List.length reqs);
  for i = 1 to requests do
    Alcotest.(check int)
      (Printf.sprintf "request %d logged once" i)
      1
      (List.length
         (List.filter
            (fun r -> List.assoc_opt "id" r = Some (Json.Int i))
            reqs))
  done;
  Alcotest.(check int) "malformed line logged as invalid" 1
    (List.length
       (List.filter
          (fun r -> List.assoc_opt "verb" r = Some (Json.String "invalid"))
          reqs));
  Alcotest.(check int) "shed requests logged as overloaded" !shed_seen
    (List.length
       (List.filter
          (fun r ->
            List.assoc_opt "outcome" r = Some (Json.String "overloaded"))
          reqs));
  (* Trace ids are unique across the run. *)
  let ids =
    List.map
      (fun r ->
        match List.assoc_opt "trace_id" r with
        | Some (Json.String id) -> id
        | _ -> Alcotest.fail "request record lacks a trace id")
      reqs
  in
  Alcotest.(check int) "trace ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  (* Stage timestamps are monotone and stage durations partition the
     end-to-end latency. *)
  List.iter
    (fun r ->
      let stages =
        match List.assoc_opt "stages" r with
        | Some (Json.List l) -> l
        | _ -> Alcotest.fail "request record lacks stages"
      in
      let ends =
        List.map
          (fun s ->
            match s with
            | Json.Obj f -> (
                match List.assoc_opt "end_s" f with
                | Some (Json.Float e) -> e
                | _ -> Alcotest.fail "stage lacks end_s")
            | _ -> Alcotest.fail "stage is not an object")
          stages
      in
      Alcotest.(check bool) "monotone stage timestamps" true
        (List.for_all2 ( <= ) ends (List.tl ends @ [ infinity ]));
      let stage_ms =
        List.fold_left
          (fun acc s ->
            match s with
            | Json.Obj f -> (
                match List.assoc_opt "ms" f with
                | Some (Json.Float ms) -> acc +. ms
                | _ -> acc)
            | _ -> acc)
          0. stages
      in
      match List.assoc_opt "total_ms" r with
      | Some (Json.Float total) ->
          Alcotest.(check (float 1e-6)) "stages sum to total" total stage_ms
      | _ -> Alcotest.fail "request record lacks total_ms")
    reqs;
  (* The snapshot carries the full stats document. *)
  match of_kind "snapshot" with
  | snap :: _ -> (
      match List.assoc_opt "stats" snap with
      | Some (Json.Obj stats) ->
          Alcotest.(check bool) "snapshot has slo" true
            (List.mem_assoc "slo" stats);
          Alcotest.(check bool) "snapshot has gauges" true
            (List.mem_assoc "gauges" stats)
      | _ -> Alcotest.fail "snapshot record lacks stats")
  | [] -> ()

(* ------------------------------------------------------------------ *)
(* Distributed tracing: a dedicated daemon with sampling forced on *)

let obj_fields = function Json.Obj fields -> fields | _ -> []

(* Span accessors over the wire encoding of the trace verb. *)
let span_int s name =
  match List.assoc_opt name (match s with Json.Obj f -> f | _ -> []) with
  | Some (Json.Int i) -> i
  | _ -> Alcotest.failf "span missing int field %s" name

let span_float s name =
  match List.assoc_opt name (match s with Json.Obj f -> f | _ -> []) with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> Alcotest.failf "span missing float field %s" name

let span_str s name =
  match List.assoc_opt name (match s with Json.Obj f -> f | _ -> []) with
  | Some (Json.String v) -> v
  | _ -> Alcotest.failf "span missing string field %s" name

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Does [id]'s ancestor chain pass through [ancestor]? *)
let rec under parents id ancestor =
  match Hashtbl.find_opt parents id with
  | None -> false
  | Some p -> p = ancestor || under parents p ancestor

let check_span_tree spans =
  let ids = Hashtbl.create 256 in
  let parents = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let id = span_int s "id" in
      if Hashtbl.mem ids id then Alcotest.failf "duplicate span id %d" id;
      Hashtbl.add ids id ();
      Hashtbl.add parents id (span_int s "parent"))
    spans;
  let roots =
    List.filter (fun s -> span_int s "parent" = 0) spans
  in
  (match roots with
  | [ root ] ->
      Alcotest.(check string)
        "root is the request span" "request" (span_str root "name")
  | _ -> Alcotest.failf "expected exactly one root, got %d" (List.length roots));
  (* Every parent link resolves: capacity drops whole subtrees, never
     a parent out from under a retained child. *)
  List.iter
    (fun s ->
      let parent = span_int s "parent" in
      if parent <> 0 && not (Hashtbl.mem ids parent) then
        Alcotest.failf "span %d (%s) has unresolvable parent %d"
          (span_int s "id") (span_str s "name") parent)
    spans;
  (* Containment: every span's window lies within its parent's (a small
     epsilon absorbs float rounding of the shared wall clock), and the
     same-domain children of any span fit inside it back-to-back. *)
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.add by_id (span_int s "id") s) spans;
  let eps = 0.5 (* ms *) in
  List.iter
    (fun s ->
      match Hashtbl.find_opt by_id (span_int s "parent") with
      | None -> ()
      | Some p ->
          let s0 = span_float s "start_ms" and d = span_float s "dur_ms" in
          let p0 = span_float p "start_ms" and pd = span_float p "dur_ms" in
          if s0 < p0 -. eps || s0 +. d > p0 +. pd +. eps then
            Alcotest.failf "span %d (%s) escapes its parent %d (%s)"
              (span_int s "id") (span_str s "name") (span_int p "id")
              (span_str p "name"))
    spans;
  (* The lifecycle stages are a strict partition of the request: their
     durations sum to the root's. (Deeper levels only guarantee
     containment — a worker help-draining a sibling task runs it
     nested inside its own span's window, so sibling durations can
     legitimately double-count.) *)
  let root = List.find (fun s -> span_int s "parent" = 0) spans in
  let stage_sum =
    List.fold_left
      (fun a s ->
        if span_int s "parent" = span_int root "id" then
          a +. span_float s "dur_ms"
        else a)
      0. spans
  in
  if Float.abs (stage_sum -. span_float root "dur_ms") > eps then
    Alcotest.failf "stage spans sum to %.3f ms, request took %.3f ms"
      stage_sum (span_float root "dur_ms");
  parents

let test_tracing_live () =
  let dir = Filename.temp_file "aved_srv_trace" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let socket = Filename.concat dir "aved.sock" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process aved
      [|
        aved; "serve"; "--socket"; socket; "--jobs"; "2"; "--trace-sample";
        "1";
      |]
      Unix.stdin devnull devnull
  in
  Unix.close devnull;
  let cleanup () =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (try Sys.readdir dir with Sys_error _ -> [||]);
    try Sys.rmdir dir with Sys_error _ -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match connect_once socket with
    | Some fd -> fd
    | None ->
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "trace daemon did not come up within 10s";
        Unix.sleepf 0.05;
        wait ()
  in
  let fd = wait () in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let design_line =
    Protocol.request_line ~id:(Json.Int 1) Protocol.Design
      (spec_params ()
      @ [ ("load", Json.Float 1000.); ("downtime_minutes", Json.Float 100.) ])
  in
  let fetch_trace () =
    let r = response (rpc ic oc design_line) in
    (match r.Protocol.outcome with
    | Ok _ -> ()
    | Error (_, m) -> Alcotest.failf "design refused: %s" m);
    let trace_id =
      match r.Protocol.response_trace_id with
      | Some id -> id
      | None -> Alcotest.fail "ok envelope carries no trace_id"
    in
    (* The response is written before the lifecycle finishes, so the
       trace can land in the ring a moment after the client has the
       answer; a fetch straight after the reply may race it. *)
    let rec fetch_doc attempts =
      match
        (response
           (rpc ic oc
              (Protocol.request_line Protocol.Trace
                 [ ("trace_id", Json.String trace_id) ])))
          .Protocol.outcome
      with
      | Ok result -> (
          match List.assoc_opt "trace" (obj_fields result) with
          | Some doc -> doc
          | None -> Alcotest.fail "trace result lacks a trace field")
      | Error (_, m) ->
          if attempts >= 40 then Alcotest.failf "trace fetch refused: %s" m
          else begin
            Unix.sleepf 0.05;
            fetch_doc (attempts + 1)
          end
    in
    let doc = fetch_doc 0 in
    Alcotest.(check string)
      "trace document echoes the id" trace_id
      (match List.assoc_opt "trace_id" (obj_fields doc) with
      | Some (Json.String s) -> s
      | _ -> "");
    doc
  in
  let doc = fetch_trace () in
  let spans =
    match List.assoc_opt "spans" (obj_fields doc) with
    | Some (Json.List spans) -> spans
    | _ -> Alcotest.fail "trace document lacks spans"
  in
  Alcotest.(check bool) "trace has spans" true (List.length spans > 6);
  let parents = check_span_tree spans in
  let handle =
    match List.find_opt (fun s -> span_str s "name" = "handle") spans with
    | Some s -> span_int s "id"
    | None -> Alcotest.fail "no handle stage span"
  in
  let under_handle pred =
    List.filter
      (fun s -> pred (span_str s "name") && under parents (span_int s "id") handle)
      spans
  in
  Alcotest.(check bool) "search-layer span under handle" true
    (under_handle (has_prefix "search.") <> []);
  Alcotest.(check bool) "solver-layer span under handle" true
    (under_handle (fun n ->
         has_prefix "markov." n || has_prefix "avail.engine." n)
    <> []);
  (* Worker domains adopt the request's context: with --jobs 2 the
     search fans out to domains other than the dispatcher's, so spans
     from a different tid must appear in the same trace. Pool pickup
     is scheduling-dependent, so allow a few attempts. *)
  let root_tid =
    match List.find_opt (fun s -> span_int s "parent" = 0) spans with
    | Some root -> span_int root "tid"
    | None -> Alcotest.fail "no root span"
  in
  let has_worker_span spans =
    List.exists (fun s -> span_int s "tid" <> root_tid) spans
  in
  let rec try_workers attempt spans =
    if has_worker_span spans then ()
    else if attempt >= 5 then
      Alcotest.fail "no worker-domain span in any sampled trace"
    else
      let doc = fetch_trace () in
      match List.assoc_opt "spans" (obj_fields doc) with
      | Some (Json.List spans) -> try_workers (attempt + 1) spans
      | _ -> Alcotest.fail "trace document lacks spans"
  in
  try_workers 0 spans;
  (* Request-scoped counter attribution reached the document. *)
  (match List.assoc_opt "counters" (obj_fields doc) with
  | Some (Json.Obj counters) ->
      Alcotest.(check bool) "attributed counters present" true (counters <> [])
  | _ -> Alcotest.fail "trace document lacks counters");
  (* Unknown ids are a user error, and even error envelopes carry a
     trace id. *)
  let r =
    response
      (rpc ic oc
         (Protocol.request_line Protocol.Trace
            [ ("trace_id", Json.String "doesnotexist") ]))
  in
  (match r.Protocol.outcome with
  | Ok _ -> Alcotest.fail "unknown trace id was accepted"
  | Error (code, _) -> check_code "unknown id" Protocol.User_error code);
  match r.Protocol.response_trace_id with
  | Some _ -> ()
  | None -> Alcotest.fail "error envelope carries no trace_id"

(* The shared daemon runs with sampling off: its envelopes still carry
   trace ids, but the trace verb has nothing to serve. *)
let test_trace_ids_without_sampling () =
  (with_conn @@ fun ic oc ->
   let r =
     response (rpc ic oc (Protocol.request_line Protocol.Health []))
   in
   match r.Protocol.response_trace_id with
   | Some id -> Alcotest.(check int) "16-hex id" 16 (String.length id)
   | None -> Alcotest.fail "ok envelope carries no trace_id");
  let _, code, message =
    server_error
      (Protocol.request_line Protocol.Trace
         [ ("trace_id", Json.String "0123456789abcdef") ])
  in
  check_code "unsampled fetch is a user error" Protocol.User_error code;
  Alcotest.(check bool) "message points at --trace-sample" true
    (contains message "trace-sample")

(* ------------------------------------------------------------------ *)
(* Unit tests of the event-loop building blocks *)

module Framing = Aved_server.Framing
module Inflight = Aved_server.Inflight

let feed_string t s =
  match Framing.feed t (Bytes.of_string s) ~len:(String.length s) with
  | Ok lines -> lines
  | Error m -> Alcotest.failf "framing refused %S: %s" s m

let test_framing_incremental () =
  let t = Framing.create () in
  (* A line split across many 1-byte chunks closes exactly once. *)
  String.iter
    (fun c ->
      Alcotest.(check (list string))
        "no line before the newline" []
        (feed_string t (String.make 1 c)))
    "hello";
  Alcotest.(check int) "partial bytes buffered" 5 (Framing.buffered t);
  Alcotest.(check (list string)) "line closes" [ "hello" ] (feed_string t "\n");
  Alcotest.(check int) "buffer drained" 0 (Framing.buffered t);
  (* Several pipelined lines in one chunk, CRLF tolerated, tail kept. *)
  Alcotest.(check (list string))
    "pipelined chunk" [ "a"; "b" ]
    (feed_string t "a\r\nb\ntail");
  Alcotest.(check (list string)) "tail closes" [ "tailc" ] (feed_string t "c\n")

let test_framing_bound () =
  let t = Framing.create ~max_line_bytes:16 () in
  let flood = String.make 32 'x' in
  (match Framing.feed t (Bytes.of_string flood) ~len:(String.length flood) with
  | Ok _ -> Alcotest.fail "oversized partial line accepted"
  | Error _ -> ());
  (* The failure is permanent: the stream cannot re-synchronize. *)
  match Framing.feed t (Bytes.of_string "a\n") ~len:2 with
  | Ok _ -> Alcotest.fail "framing resumed after overflow"
  | Error _ -> ()

let test_inflight_registry () =
  let t = Inflight.create () in
  Alcotest.(check int) "empty" 0 (Inflight.length t);
  (match Inflight.claim t ~key:"k" ~waiter:"leader-is-not-stored" with
  | `Leader -> ()
  | `Attached -> Alcotest.fail "first claim must lead");
  List.iter
    (fun w ->
      match Inflight.claim t ~key:"k" ~waiter:w with
      | `Attached -> ()
      | `Leader -> Alcotest.failf "%s claimed a second leadership" w)
    [ "w1"; "w2"; "w3" ];
  (match Inflight.claim t ~key:"other" ~waiter:"x" with
  | `Leader -> ()
  | `Attached -> Alcotest.fail "distinct keys are independent");
  Alcotest.(check int) "two in flight" 2 (Inflight.length t);
  (* Broadcast hits every waiter in attach order, with the verdict. *)
  let seen = ref [] in
  let n =
    Inflight.complete t ~key:"k" ~result:42 ~broadcast:(fun w r ->
        Alcotest.(check int) "verdict delivered" 42 r;
        seen := w :: !seen)
  in
  Alcotest.(check int) "three waiters" 3 n;
  Alcotest.(check (list string)) "attach order" [ "w1"; "w2"; "w3" ]
    (List.rev !seen);
  (* The key is free again; completing an absent key is a no-op. *)
  (match Inflight.claim t ~key:"k" ~waiter:"y" with
  | `Leader -> ()
  | `Attached -> Alcotest.fail "completed key still had an entry");
  Alcotest.(check int) "absent key broadcasts nothing" 0
    (Inflight.complete t ~key:"gone" ~result:0 ~broadcast:(fun _ _ -> ()))

let test_coalesce_key_identity () =
  let req line =
    match Protocol.request_of_line line with
    | Ok r -> r
    | Error (_, m) -> Alcotest.failf "bad request line: %s" m
  in
  let key line =
    match Protocol.coalesce_key (req line) with
    | Some k -> k
    | None -> Alcotest.failf "no coalesce key for %s" line
  in
  (* Same computation, different field order, ids and deadlines: one key. *)
  let a = key "{\"verb\":\"design\",\"id\":1,\"params\":{\"load\":5,\"x\":{\"b\":1,\"a\":2}}}" in
  let b = key "{\"verb\":\"design\",\"id\":2,\"deadline_ms\":50,\"params\":{\"x\":{\"a\":2,\"b\":1},\"load\":5}}" in
  Alcotest.(check string) "field order and envelope do not split keys" a b;
  (* Different params, verb, or negotiated version: distinct keys. *)
  let c = key "{\"verb\":\"design\",\"params\":{\"load\":6,\"x\":{\"a\":2,\"b\":1}}}" in
  Alcotest.(check bool) "params split keys" false (a = c);
  let d = key "{\"verb\":\"frontier\",\"params\":{\"load\":5,\"x\":{\"b\":1,\"a\":2}}}" in
  Alcotest.(check bool) "verbs split keys" false (a = d);
  let e = key "{\"schema_version\":2,\"verb\":\"design\",\"params\":{\"load\":5,\"x\":{\"b\":1,\"a\":2}}}" in
  Alcotest.(check bool) "dialects split keys" false (a = e);
  (* Time-varying verbs never coalesce. *)
  List.iter
    (fun v ->
      match
        Protocol.coalesce_key
          (req (Printf.sprintf "{\"verb\":%S,\"params\":{}}" v))
      with
      | None -> ()
      | Some _ -> Alcotest.failf "%s must not coalesce" v)
    [ "health"; "stats"; "metrics"; "trace" ]

let test_envelope_dialects () =
  (* v1 success envelopes carry no coalesced field; v2 always do. *)
  let v1 = Protocol.ok_response ~version:1 ~id:(Json.Int 3) (Json.Bool true) in
  Alcotest.(check string) "v1 bytes"
    "{\"schema_version\":1,\"id\":3,\"ok\":true,\"result\":true}" v1;
  let v2 =
    Protocol.ok_response ~version:2 ~coalesced:true ~id:(Json.Int 3)
      (Json.Bool true)
  in
  Alcotest.(check string) "v2 bytes"
    "{\"schema_version\":2,\"id\":3,\"ok\":true,\"coalesced\":true,\"result\":true}"
    v2;
  (* The spliced-body renderer is byte-identical to the JSON one. *)
  let result = Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Null ]) ] in
  Alcotest.(check string) "rendered splice = object render"
    (Protocol.ok_response ~version:2 ~trace_id:"t1" ~id:(Json.String "x") result)
    (Protocol.ok_response_rendered ~version:2 ~trace_id:"t1"
       ~id:(Json.String "x") (Json.to_string result));
  (* Error codes: legacy hyphenated strings on v1, the unified
     taxonomy on v2 — Shutting_down folds into overloaded. *)
  List.iter
    (fun (code, s1, s2) ->
      Alcotest.(check string) "v1 code" s1
        (Protocol.error_code_to_string ~version:1 code);
      Alcotest.(check string) "v2 code" s2
        (Protocol.error_code_to_string ~version:2 code))
    [
      (Protocol.Bad_request, "bad-request", "bad_request");
      (Protocol.User_error, "user-error", "check_error");
      (Protocol.Overloaded, "overloaded", "overloaded");
      (Protocol.Deadline_exceeded, "deadline-exceeded", "deadline");
      (Protocol.Shutting_down, "shutting-down", "overloaded");
      (Protocol.Internal, "internal", "internal");
    ];
  (* Both dialects decode. *)
  List.iter
    (fun (s, code) ->
      match Protocol.error_code_of_string s with
      | Some c when c = code -> ()
      | _ -> Alcotest.failf "%S did not decode" s)
    [
      ("bad-request", Protocol.Bad_request);
      ("bad_request", Protocol.Bad_request);
      ("check_error", Protocol.User_error);
      ("deadline", Protocol.Deadline_exceeded);
      ("overloaded", Protocol.Overloaded);
    ]

(* ------------------------------------------------------------------ *)
(* Wire API v2 against the live daemon *)

let raw_response line =
  with_conn @@ fun ic oc -> rpc ic oc line

(* v1 clients are untouched by the redesign: an explicit version-1
   request — or one naming no version at all, the only kind that
   existed before negotiation — gets a version-1 envelope, legacy
   result bytes, and no [coalesced] field. *)
let test_v1_compat () =
  List.iter
    (fun request ->
      let line = raw_response request in
      Alcotest.(check bool)
        (Printf.sprintf "v1 envelope for %s" request)
        true
        (has_prefix "{\"schema_version\":1,\"id\":null,\"ok\":true,\"trace_id\":" line);
      Alcotest.(check bool) "no coalesced field" false
        (contains line "coalesced");
      Alcotest.(check bool) "v1 result bytes" true
        (contains line "\"result\":{\"schema_version\":1,\"status\":\"ok\"}"))
    [
      "{\"schema_version\":1,\"verb\":\"health\",\"params\":{}}";
      "{\"verb\":\"health\",\"params\":{}}";
      "{\"verb\":\"health\"}";
    ];
  (* v1 errors keep the legacy hyphenated code strings. *)
  let err = raw_response "{\"schema_version\":1,\"verb\":\"bogus\",\"params\":{}}" in
  Alcotest.(check bool) "v1 error code" true
    (contains err "\"code\":\"bad-request\"")

let test_v2_envelope () =
  let line =
    raw_response (Protocol.request_line ~id:(Json.Int 7) Protocol.Health [])
  in
  Alcotest.(check bool) "v2 prefix with coalesced" true
    (has_prefix "{\"schema_version\":2,\"id\":7,\"ok\":true,\"coalesced\":false"
       line);
  let r = response line in
  Alcotest.(check (option bool))
    "decoded coalesced" (Some false) r.Protocol.response_coalesced;
  (* v2 errors speak the unified taxonomy. *)
  let err = raw_response "{\"schema_version\":2,\"verb\":\"bogus\",\"params\":{}}" in
  Alcotest.(check bool) "v2 error code" true
    (contains err "\"code\":\"bad_request\"")

(* The reactor's framing: a request dribbled in 1-byte writes is
   assembled and answered; two requests in one write both answer. *)
let test_partial_writes () =
  with_conn @@ fun ic oc ->
  let line = Protocol.request_line ~id:(Json.Int 9) Protocol.Health [] ^ "\n" in
  String.iter
    (fun c ->
      output_char oc c;
      flush oc)
    line;
  (match (response (input_line ic)).Protocol.outcome with
  | Ok _ -> ()
  | Error (_, m) -> Alcotest.failf "byte-at-a-time request refused: %s" m);
  let a = Protocol.request_line ~id:(Json.Int 10) Protocol.Health [] in
  let b = Protocol.request_line ~id:(Json.Int 11) Protocol.Health [] in
  output_string oc (a ^ "\n" ^ b ^ "\n");
  flush oc;
  List.iter
    (fun expected ->
      let r = response (input_line ic) in
      Alcotest.(check string) "pipelined id" expected
        (Json.to_string r.Protocol.response_id))
    [ "10"; "11" ]

(* Pipelining under v2: a slow design ahead of cheap healths on one
   connection; ids match each completion to its request whatever the
   arrival order. *)
let test_pipelined_ids () =
  with_conn @@ fun ic oc ->
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Protocol.request_line ~id:(Json.Int 100) Protocol.Design
       (spec_params ()
       @ [ ("load", Json.Float 1000.); ("downtime_minutes", Json.Float 100.) ]
       ));
  Buffer.add_char buf '\n';
  for i = 101 to 104 do
    Buffer.add_string buf
      (Protocol.request_line ~id:(Json.Int i) Protocol.Health []);
    Buffer.add_char buf '\n'
  done;
  output_string oc (Buffer.contents buf);
  flush oc;
  let seen = ref [] in
  for _ = 0 to 4 do
    let r = response (input_line ic) in
    (match r.Protocol.outcome with
    | Ok _ -> ()
    | Error (_, m) -> Alcotest.failf "pipelined request failed: %s" m);
    match r.Protocol.response_id with
    | Json.Int i -> seen := i :: !seen
    | other ->
        Alcotest.failf "non-integer id echoed: %s" (Json.to_string other)
  done;
  Alcotest.(check (list int))
    "every id answered exactly once"
    [ 100; 101; 102; 103; 104 ]
    (List.sort compare !seen)

(* ------------------------------------------------------------------ *)
(* Coalescing against the live daemon *)

let connect_client () =
  let d = Lazy.force the_daemon in
  match connect_once d.socket with
  | Some fd -> (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
  | None -> Alcotest.fail "could not connect to the server"

let close_client (fd, _, _) = try Unix.close fd with Unix.Unix_error _ -> ()

let send_only (_, _, oc) line =
  output_string oc line;
  output_char oc '\n';
  flush oc

(* Counters materialize in the stats [counters] object on first
   increment; a name that has never fired reads as zero. *)
let stats_counter name =
  let stats = server_result (Protocol.request_line Protocol.Stats []) in
  match stats with
  | Json.Obj fields -> (
      match List.assoc_opt "counters" fields with
      | Some (Json.Obj counters) -> (
          match List.assoc_opt name counters with
          | Some (Json.Int n) -> n
          | _ -> 0)
      | _ -> Alcotest.fail "stats lacks counters")
  | _ -> Alcotest.fail "stats result is not an object"

(* The [coalescing] stats object is always present, whatever has run. *)
let coalescing_stat field =
  let stats = server_result (Protocol.request_line Protocol.Stats []) in
  match stats with
  | Json.Obj fields -> (
      match List.assoc_opt "coalescing" fields with
      | Some (Json.Obj c) -> (
          match List.assoc_opt field c with
          | Some (Json.Int n) -> n
          | _ -> Alcotest.failf "coalescing.%s missing" field)
      | _ -> Alcotest.fail "stats lacks coalescing")
  | _ -> Alcotest.fail "stats result is not an object"

(* Park both dispatchers on distinct blocker designs so a subsequent
   herd's leader sits queued while its twins arrive and attach. *)
let with_parked_dispatchers ~blocker_load f =
  let blockers =
    Array.init 4 (fun j ->
        let c = connect_client () in
        send_only c
          (Protocol.request_line ~id:(Json.Int (-1 - j)) Protocol.Design
             (spec_params ()
             @ [
                 ("load", Json.Float (blocker_load +. float_of_int j));
                 ("downtime_minutes", Json.Float 123.);
               ]));
        c)
  in
  Fun.protect ~finally:(fun () -> Array.iter close_client blockers) @@ fun () ->
  let result = f () in
  (* Blockers must themselves complete fine. *)
  Array.iter
    (fun (_, ic, _) ->
      match (response (input_line ic)).Protocol.outcome with
      | Ok _ -> ()
      | Error (_, m) -> Alcotest.failf "blocker failed: %s" m)
    blockers;
  result

(* A herd of identical uncached requests runs one underlying search;
   every response carries its own id around byte-identical results. *)
let test_coalescing_herd () =
  let herd_size = 12 in
  let searches_before = stats_counter "server.requests.design" in
  let herd = Array.init herd_size (fun _ -> connect_client ()) in
  Fun.protect ~finally:(fun () -> Array.iter close_client herd) @@ fun () ->
  let coalesced, results =
    with_parked_dispatchers ~blocker_load:4200. @@ fun () ->
    Array.iteri
      (fun k c ->
        send_only c
          (Protocol.request_line ~id:(Json.Int k) Protocol.Design
             (spec_params ()
             @ [
                 ("load", Json.Float 4100.);
                 ("downtime_minutes", Json.Float 123.);
               ])))
      herd;
    let coalesced = ref 0 in
    let results = ref [] in
    Array.iteri
      (fun k (_, ic, _) ->
        let r = response (input_line ic) in
        Alcotest.(check string) "own id echoed" (string_of_int k)
          (Json.to_string r.Protocol.response_id);
        if r.Protocol.response_coalesced = Some true then incr coalesced;
        match r.Protocol.outcome with
        | Ok result -> results := Json.to_string result :: !results
        | Error (_, m) -> Alcotest.failf "herd request %d failed: %s" k m)
      herd;
    (!coalesced, !results)
  in
  Alcotest.(check int) "identical results across the herd" 1
    (List.length (List.sort_uniq compare results));
  Alcotest.(check bool)
    (Printf.sprintf "most of the herd coalesced (%d/%d)" coalesced herd_size)
    true
    (coalesced >= herd_size / 2);
  let searches =
    stats_counter "server.requests.design" - searches_before - 4 (* blockers *)
  in
  Alcotest.(check bool)
    (Printf.sprintf "few underlying searches (%d)" searches)
    true
    (searches >= 1 && searches <= herd_size / 2)

(* Waiters share the leader's fate: identical requests naming an
   unreadable spec all receive the leader's error broadcast. *)
let test_error_broadcast () =
  let herd_size = 6 in
  let coalesced_before = coalescing_stat "coalesced" in
  let herd = Array.init herd_size (fun _ -> connect_client ()) in
  Fun.protect ~finally:(fun () -> Array.iter close_client herd) @@ fun () ->
  let errors =
    with_parked_dispatchers ~blocker_load:4210. @@ fun () ->
    Array.iteri
      (fun k c ->
        send_only c
          (Protocol.request_line ~id:(Json.Int k) Protocol.Design
             [
               ("infra_file", Json.String "/nonexistent/broadcast.spec");
               ("service_file", Json.String (spec "ecommerce.spec"));
               ("load", Json.Float 1000.);
               ("downtime_minutes", Json.Float 100.);
             ]))
      herd;
    Array.to_list
      (Array.map
         (fun (_, ic, _) ->
           let r = response (input_line ic) in
           match r.Protocol.outcome with
           | Ok _ -> Alcotest.fail "bad spec was accepted"
           | Error (code, message) ->
               check_code "shared error code" Protocol.User_error code;
               message)
         herd)
  in
  Alcotest.(check int) "identical error message across the herd" 1
    (List.length (List.sort_uniq compare errors));
  Alcotest.(check bool) "waiters were coalesced" true
    (coalescing_stat "coalesced" > coalesced_before)

(* ------------------------------------------------------------------ *)
(* Backpressure and drain, each against a dedicated daemon *)

let with_private_daemon args f =
  let dir = Filename.temp_file "aved_srv_priv" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let socket = Filename.concat dir "aved.sock" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process aved
      (Array.append [| aved; "serve"; "--socket"; socket |] args)
      Unix.stdin devnull devnull
  in
  Unix.close devnull;
  let reaped = ref false in
  let cleanup () =
    if not !reaped then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
    end;
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (try Sys.readdir dir with Sys_error _ -> [||]);
    try Sys.rmdir dir with Sys_error _ -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match connect_once socket with
    | Some fd -> Unix.close fd
    | None ->
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "private daemon did not come up within 10s";
        Unix.sleepf 0.05;
        wait ()
  in
  wait ();
  let terminate () =
    Unix.kill pid Sys.sigterm;
    let _, status = Unix.waitpid [] pid in
    reaped := true;
    status
  in
  f ~socket ~terminate

let private_conn socket =
  match connect_once socket with
  | Some fd -> (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
  | None -> Alcotest.fail "could not connect to the private daemon"

(* A client that stops reading cannot buffer without bound or wedge
   the daemon: once its backlog makes no progress for --send-timeout,
   the connection is dropped and other clients are unaffected. *)
let test_slow_reader_dropped () =
  with_private_daemon
    [| "--jobs"; "1"; "--queue"; "1000"; "--send-timeout"; "1" |]
  @@ fun ~socket ~terminate ->
  let ((_, ic, oc) as slow) = private_conn socket in
  Fun.protect ~finally:(fun () -> close_client slow) @@ fun () ->
  (* Pipeline far more response bytes than the kernel buffers absorb,
     and read none of them. *)
  let requests = 800 in
  let buf = Buffer.create (requests * 64) in
  for i = 1 to requests do
    Buffer.add_string buf
      (Protocol.request_line ~id:(Json.Int i) Protocol.Stats []);
    Buffer.add_char buf '\n'
  done;
  output_string oc (Buffer.contents buf);
  flush oc;
  (* Sit unreading past the stall bound (plus the sweep cadence). *)
  Unix.sleepf 2.5;
  (* The daemon must have cut us loose: reading now finds whatever the
     kernel buffered, then EOF — never all of the responses. *)
  let received = ref 0 in
  (try
     while !received < requests do
       ignore (input_line ic);
       incr received
     done
   with End_of_file | Sys_error _ -> ());
  Alcotest.(check bool)
    (Printf.sprintf "connection dropped mid-stream (%d/%d)" !received requests)
    true
    (!received < requests);
  (* The loop is not wedged: a fresh connection still answers, and the
     drop is visible in the telemetry. *)
  let ((_, ic2, oc2) as probe) = private_conn socket in
  Fun.protect ~finally:(fun () -> close_client probe) @@ fun () ->
  let r = response (rpc ic2 oc2 (Protocol.request_line Protocol.Stats [])) in
  (match r.Protocol.outcome with
  | Ok (Json.Obj fields) -> (
      match List.assoc_opt "counters" fields with
      | Some (Json.Obj counters) -> (
          match List.assoc_opt "server.connections.send_timeout" counters with
          | Some (Json.Int n) ->
              Alcotest.(check bool) "send_timeout counted" true (n >= 1)
          | _ -> Alcotest.fail "no send_timeout counter")
      | _ -> Alcotest.fail "stats lacks counters")
  | Ok _ -> Alcotest.fail "stats result is not an object"
  | Error (_, m) -> Alcotest.failf "daemon wedged after slow reader: %s" m);
  match terminate () with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "daemon did not drain cleanly after slow reader"

(* SIGTERM mid-herd: requests already admitted — the queued leader and
   every attached waiter — are answered before exit. *)
let test_drain_with_waiters () =
  with_private_daemon [| "--jobs"; "1"; "--dispatchers"; "1" |]
  @@ fun ~socket ~terminate ->
  let filler = private_conn socket in
  let herd = Array.init 6 (fun _ -> private_conn socket) in
  Fun.protect
    ~finally:(fun () ->
      close_client filler;
      Array.iter close_client herd)
  @@ fun () ->
  (* Five distinct designs pile onto the lone dispatcher first, so the
     herd's leader is still queued — waiters attached — when SIGTERM
     lands. *)
  for j = 0 to 4 do
    send_only filler
      (Protocol.request_line ~id:(Json.Int (-1 - j)) Protocol.Design
         (spec_params ()
         @ [
             ("load", Json.Float (4300. +. float_of_int j));
             ("downtime_minutes", Json.Float 9.);
           ]))
  done;
  Array.iteri
    (fun k c ->
      send_only c
        (Protocol.request_line ~id:(Json.Int k) Protocol.Design
           (spec_params ()
           @ [
               ("load", Json.Float 4444.); ("downtime_minutes", Json.Float 9.);
             ])))
    herd;
  (* Give the event loop a beat to admit everything, then pull the
     plug while the queue is still working. *)
  Unix.sleepf 0.05;
  (match terminate () with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> Alcotest.failf "drain exited %d" n
  | _ -> Alcotest.fail "drain died on a signal");
  (* Every admitted request was answered before exit: the responses
     are sitting in our kernel buffers. *)
  let (_, fic, _) = filler in
  for _ = 0 to 4 do
    match (response (input_line fic)).Protocol.outcome with
    | Ok _ -> ()
    | Error (_, m) -> Alcotest.failf "filler dropped in drain: %s" m
  done;
  let results = ref [] in
  Array.iteri
    (fun k (_, ic, _) ->
      let r = response (input_line ic) in
      Alcotest.(check string) "waiter id" (string_of_int k)
        (Json.to_string r.Protocol.response_id);
      match r.Protocol.outcome with
      | Ok result -> results := Json.to_string result :: !results
      | Error (_, m) -> Alcotest.failf "waiter %d dropped in drain: %s" k m)
    herd;
  Alcotest.(check int) "waiters share one result" 1
    (List.length (List.sort_uniq compare !results));
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket)

(* ------------------------------------------------------------------ *)
(* Trail isolation: explain runs beside in-flight searches *)

(* The e-commerce serving shape (one-domain searches, two dispatchers):
   [explain]s admitted while [design] blockers are in flight on other
   connections run concurrently with them, and every answer stays
   byte-equal to the one-shot CLI's — a provenance trail leaking
   between requests would change an explain result. The explains differ
   in [top] so none coalesces onto another. *)
let test_explain_beside_designs () =
  with_private_daemon [| "--jobs"; "1"; "--dispatchers"; "2" |]
  @@ fun ~socket ~terminate ->
  let requests =
    List.init 16 (fun k ->
        if k mod 4 = 1 then
          let top = 1 + (k / 4) in
          ( Printf.sprintf "explain --load 1000 --downtime 100 --top %d" top,
            Protocol.Explain,
            [
              ("load", Json.Float 1000.);
              ("downtime_minutes", Json.Float 100.);
              ("top", Json.Int top);
            ] )
        else
          let load = 4500. +. (10. *. float_of_int k) in
          ( Printf.sprintf "design --load %g --downtime 123" load,
            Protocol.Design,
            [ ("load", Json.Float load); ("downtime_minutes", Json.Float 123.) ]
          ))
  in
  let conns = List.map (fun _ -> private_conn socket) requests in
  Fun.protect ~finally:(fun () -> List.iter close_client conns) @@ fun () ->
  List.iteri
    (fun k (c, (_, verb, params)) ->
      send_only c
        (Protocol.request_line ~id:(Json.Int k) verb (spec_params () @ params)))
    (List.combine conns requests);
  List.iter
    (fun ((_, ic, _), (args, _, _)) ->
      let served =
        match (response (input_line ic)).Protocol.outcome with
        | Ok result -> Json.to_string result
        | Error (_, m) -> Alcotest.failf "%s failed: %s" args m
      in
      let status, stdout, stderr =
        run_aved
          (Printf.sprintf "%s -i %s -s %s --jobs 1 --json" args
             (spec "infrastructure.spec") (spec "ecommerce.spec"))
      in
      if status <> 0 then
        Alcotest.failf "CLI %s exited %d: %s" args status stderr;
      Alcotest.(check string) (args ^ " = CLI --json") (String.trim stdout) served)
    (List.combine conns requests);
  match terminate () with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "daemon did not drain cleanly"

(* ------------------------------------------------------------------ *)
(* Shutdown — must run last: it takes the shared daemon down *)

let test_sigterm_drains () =
  let d = Lazy.force the_daemon in
  Unix.kill d.pid Sys.sigterm;
  let _, status = Unix.waitpid [] d.pid in
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> Alcotest.failf "server exited %d" n
  | Unix.WSIGNALED n -> Alcotest.failf "server killed by signal %d" n
  | Unix.WSTOPPED n -> Alcotest.failf "server stopped by signal %d" n);
  Alcotest.(check bool)
    "socket unlinked" false (Sys.file_exists d.socket);
  (try Sys.rmdir d.dir with Sys_error _ -> ());
  daemon := None

(* Belt and braces: never leave the subprocess behind, even if the
   suite dies before the shutdown test. *)
let () =
  at_exit (fun () ->
      match !daemon with
      | Some d -> ( try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ())
      | None -> ())

let () =
  Alcotest.run "server"
    [
      ( "parity",
        [
          Alcotest.test_case "design = CLI --json" `Quick test_design_parity;
          Alcotest.test_case "frontier = CLI --json" `Quick
            test_frontier_parity;
          Alcotest.test_case "explain = CLI --json" `Quick test_explain_parity;
          Alcotest.test_case "check = CLI --json" `Quick test_check_parity;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "health answers exact bytes" `Quick test_health;
          Alcotest.test_case "request ids echo back" `Quick test_id_echo;
          Alcotest.test_case "stats carries the observability surface" `Quick
            test_stats_shape;
          Alcotest.test_case "metrics verb speaks Prometheus" `Quick
            test_metrics_exposition;
          Alcotest.test_case "request log: every request exactly once" `Quick
            test_request_log;
          Alcotest.test_case "malformed JSON is a bad request" `Quick
            test_bad_json;
          Alcotest.test_case "unknown verb is a bad request" `Quick
            test_unknown_verb;
          Alcotest.test_case "foreign schema_version is a bad request" `Quick
            test_wrong_schema_version;
          Alcotest.test_case "missing params are a bad request" `Quick
            test_missing_params;
          Alcotest.test_case "unreadable spec is a user error" `Quick
            test_bad_spec_is_user_error;
          Alcotest.test_case "expired deadline is reported as such" `Quick
            test_expired_deadline;
          Alcotest.test_case "blank lines are skipped" `Quick
            test_blank_lines_skipped;
          Alcotest.test_case "connections are independent" `Quick
            test_concurrent_connections;
          Alcotest.test_case "nesting bomb is a bad request" `Quick
            test_deep_nesting_rejected;
          Alcotest.test_case "live socket path is refused" `Quick
            test_live_socket_refused;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "sampled request yields a span tree" `Quick
            test_tracing_live;
          Alcotest.test_case "trace ids without sampling" `Quick
            test_trace_ids_without_sampling;
        ] );
      ( "units",
        [
          Alcotest.test_case "framing assembles incrementally" `Quick
            test_framing_incremental;
          Alcotest.test_case "framing bounds line length" `Quick
            test_framing_bound;
          Alcotest.test_case "inflight registry leads and broadcasts" `Quick
            test_inflight_registry;
          Alcotest.test_case "coalesce keys hash content, not envelope" `Quick
            test_coalesce_key_identity;
          Alcotest.test_case "envelope dialects v1/v2" `Quick
            test_envelope_dialects;
        ] );
      ( "wire-v2",
        [
          Alcotest.test_case "v1 requests get byte-identical v1 replies"
            `Quick test_v1_compat;
          Alcotest.test_case "v2 envelope carries id and coalesced" `Quick
            test_v2_envelope;
          Alcotest.test_case "byte-at-a-time and two-in-one-write framing"
            `Quick test_partial_writes;
          Alcotest.test_case "pipelined ids match out-of-order completion"
            `Quick test_pipelined_ids;
        ] );
      ( "coalescing",
        [
          Alcotest.test_case "identical herd shares one search" `Quick
            test_coalescing_herd;
          Alcotest.test_case "errors broadcast to waiters too" `Quick
            test_error_broadcast;
        ] );
      ( "backpressure",
        [
          Alcotest.test_case "slow reader is dropped, loop survives" `Quick
            test_slow_reader_dropped;
          Alcotest.test_case "drain answers queued waiters" `Quick
            test_drain_with_waiters;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "explain beside in-flight designs = CLI --json"
            `Quick test_explain_beside_designs;
        ] );
      ( "shutdown",
        [
          Alcotest.test_case "SIGTERM drains and exits 0" `Quick
            test_sigterm_drains;
        ] );
    ]
