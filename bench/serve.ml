(* Closed-loop load harness for the aved serve daemon (BENCH_serve.json
   schema v3).

   Runs the server in-process on a temp Unix-domain socket and drives
   three phases through the event-driven core:

   - cold: one connection walks the full design/frontier grid against a
     fresh server — first-request latency before any spec cache or
     evaluation cache is warm. Reported separately so cache warmup is
     never laundered into the steady-state numbers.
   - warm: the headline — [--conns] connections (default 100) in a
     sustained closed loop for [--duration] seconds, cycling a small
     distinct design set so concurrent duplicates exercise request
     coalescing the way a dashboard fleet would. Reports throughput,
     design-latency percentiles, and the coalesced fraction, and
     asserts design p99 within the daemon's default SLO latency budget
     (nonzero exit on violation, so CI fails loudly).
   - herd: every connection fires the same never-before-seen design
     request at once while the dispatchers are parked on blockers;
     asserts >= 90% of the responses are coalesced broadcasts and
     counts the underlying searches via the server's own counters.

   Schema v3 carries the previous run's headline figure forward as
   "baseline" (read from an existing BENCH_serve.json — its own
   baseline if it has one, else its throughput), so speedups survive
   regeneration without archaeology.

   Run with:         dune exec bench/serve.exe
   Machine-readable: dune exec bench/serve.exe -- json
   Knobs:            --conns N --duration S *)

module Server = Aved_server.Server
module Protocol = Aved_server.Protocol
module Json = Aved_explain.Json
module Json_parse = Aved_api.Json_parse

(* ------------------------------------------------------------------ *)
(* Client *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let close_client (fd, _, _) = try Unix.close fd with Unix.Unix_error _ -> ()

let send_line oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let rpc ic oc line =
  send_line oc line;
  input_line ic

let result_of_response line =
  match Protocol.response_of_line line with
  | Ok { outcome = Ok result; _ } -> result
  | Ok { outcome = Error (_, message); _ } ->
      failwith (Printf.sprintf "server error: %s" message)
  | Error message ->
      failwith (Printf.sprintf "unparsable response: %s" message)

let obj_field json name =
  match json with
  | Json.Obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> v
      | None -> failwith (Printf.sprintf "response lacks %S" name))
  | _ -> failwith "expected a JSON object"

let int_field json name =
  match obj_field json name with
  | Json.Int i -> i
  | _ -> failwith (Printf.sprintf "field %S is not an integer" name)

let float_field json name =
  match obj_field json name with
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> failwith (Printf.sprintf "field %S is not a number" name)

(* The warm loop is itself on the measured core, so it checks response
   envelopes with substring probes instead of a JSON parse per line —
   the encoder is compact and deterministic, making ["ok":true] and
   ["coalesced":true] exact byte sequences. *)
let has_substring line sub =
  let n = String.length line and m = String.length sub in
  let rec matches_at i j = j = m || (line.[i + j] = sub.[j] && matches_at i (j + 1)) in
  let rec at i = i + m <= n && (matches_at i 0 || at (i + 1)) in
  at 0

(* ------------------------------------------------------------------ *)
(* Workload *)

type spec_files = { infra : string; service : string }

let write_specs dir =
  let write name content =
    let path = Filename.concat dir name in
    let oc = open_out path in
    output_string oc content;
    close_out oc;
    path
  in
  {
    infra = write "infrastructure.spec" Aved.Experiments.infrastructure_spec;
    service = write "ecommerce.spec" Aved.Experiments.ecommerce_spec;
  }

let design_loads = [| 250.; 500.; 1000.; 1500.; 2000.; 2500.; 3000.; 4000. |]
let design_downtimes = [| 5.; 50.; 500. |]

let spec_params specs =
  [
    ("infra_file", Json.String specs.infra);
    ("service_file", Json.String specs.service);
  ]

let design_line specs ~id ~load ~downtime =
  Protocol.request_line ~id:(Json.Int id) Protocol.Design
    (spec_params specs
    @ [ ("load", Json.Float load); ("downtime_minutes", Json.Float downtime) ])

(* The warm set: the dashboard-fleet shape — many clients polling a
   handful of live designs. Few enough distinct points that 100
   closed-loop connections keep landing on computations already in
   flight, the coalescing case the daemon is built for; with the whole
   core shared by searches and serving, each extra distinct point
   costs a full search per cycle. *)
let warm_loads = [| 500.; 1000.; 2000. |]
let warm_downtime = 50.

let warm_line specs i =
  if i mod 20 = 0 then
    (Protocol.request_line ~id:(Json.Int i) Protocol.Health [], `Other)
  else if i mod 400 = 37 then
    (Protocol.request_line ~id:(Json.Int i) Protocol.Stats [], `Other)
  else
    let load = warm_loads.(i mod Array.length warm_loads) in
    (design_line specs ~id:i ~load ~downtime:warm_downtime, `Design)

(* ------------------------------------------------------------------ *)
(* Percentiles *)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(Int.min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1))

type latency_summary = {
  count : int;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
}

let summarize samples =
  let sorted = Array.of_list samples in
  Array.sort compare sorted;
  let count = Array.length sorted in
  let sum = Array.fold_left ( +. ) 0. sorted in
  {
    count;
    mean_ms = 1000. *. sum /. float_of_int (Int.max 1 count);
    p50_ms = 1000. *. percentile sorted 0.50;
    p95_ms = 1000. *. percentile sorted 0.95;
    p99_ms = 1000. *. percentile sorted 0.99;
  }

(* ------------------------------------------------------------------ *)
(* Phases *)

(* Cold: the very first touch of every grid point over one connection,
   straight after the server starts. 1 check + full design grid +
   frontier per load + one explain. *)
let run_cold specs ic oc =
  let design = ref [] in
  let t0 = Unix.gettimeofday () in
  let timed bucket line =
    let start = Unix.gettimeofday () in
    let response = rpc ic oc line in
    let dt = Unix.gettimeofday () -. start in
    (match bucket with Some b -> b := dt :: !b | None -> ());
    ignore (result_of_response response)
  in
  timed None
    (Protocol.request_line Protocol.Check
       [
         ( "files",
           Json.List [ Json.String specs.infra; Json.String specs.service ] );
       ]);
  let requests = ref 1 in
  Array.iter
    (fun downtime ->
      Array.iter
        (fun load ->
          incr requests;
          timed (Some design) (design_line specs ~id:!requests ~load ~downtime))
        design_loads)
    design_downtimes;
  Array.iter
    (fun load ->
      incr requests;
      timed None
        (Protocol.request_line ~id:(Json.Int !requests) Protocol.Frontier
           (spec_params specs @ [ ("load", Json.Float load) ])))
    design_loads;
  incr requests;
  timed None
    (Protocol.request_line ~id:(Json.Int !requests) Protocol.Explain
       (spec_params specs
       @ [
           ("load", Json.Float 1000.);
           ("downtime_minutes", Json.Float 100.);
           ("top", Json.Int 3);
         ]));
  (!requests, Unix.gettimeofday () -. t0, summarize !design)

type warm_acc = {
  mutable design : float list;
  mutable other : float list;
  mutable coalesced : int;
}

(* Warm: the sustained closed loop. Each connection repeats
   request->response until the deadline; a global index spreads the mix
   so concurrent connections keep colliding on the same design
   points. *)
let run_warm specs socket ~conns ~duration =
  let counter = Atomic.make 0 in
  let accs =
    Array.init conns (fun _ -> { design = []; other = []; coalesced = 0 })
  in
  let t0 = Unix.gettimeofday () in
  let t_end = t0 +. duration in
  let worker w =
    let ((_, ic, oc) as client) = connect socket in
    Fun.protect ~finally:(fun () -> close_client client) @@ fun () ->
    let acc = accs.(w) in
    while Unix.gettimeofday () < t_end do
      let i = Atomic.fetch_and_add counter 1 in
      let line, kind = warm_line specs i in
      let start = Unix.gettimeofday () in
      let response = rpc ic oc line in
      let dt = Unix.gettimeofday () -. start in
      if not (has_substring response "\"ok\":true") then
        failwith (Printf.sprintf "warm: error response: %s" response);
      match kind with
      | `Design ->
          acc.design <- dt :: acc.design;
          if has_substring response "\"coalesced\":true" then
            acc.coalesced <- acc.coalesced + 1
      | `Other -> acc.other <- dt :: acc.other
    done
  in
  let threads = Array.init conns (fun w -> Thread.create worker w) in
  Array.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  let design =
    summarize (Array.fold_left (fun l a -> a.design @ l) [] accs)
  in
  let other_count =
    Array.fold_left (fun n a -> n + List.length a.other) 0 accs
  in
  let coalesced = Array.fold_left (fun n a -> n + a.coalesced) 0 accs in
  let requests = design.count + other_count in
  ( requests,
    wall,
    float_of_int requests /. Float.max 1e-9 wall,
    design,
    coalesced )

(* Herd: [conns] connections fire one identical never-seen design
   request while every dispatcher is parked on a distinct blocker, so
   the herd's leader is still queued when its twins arrive — the
   thundering-herd case coalescing exists for. The server's own
   [server.requests.design] counter says how many searches actually
   ran underneath. *)
let run_herd specs socket ~conns ~dispatchers ~control_ic ~control_oc =
  let design_count () =
    let stats =
      result_of_response
        (rpc control_ic control_oc (Protocol.request_line Protocol.Stats []))
    in
    int_field (obj_field stats "counters") "server.requests.design"
  in
  let before = design_count () in
  let herd = Array.init conns (fun _ -> connect socket) in
  (* Two distinct blockers per dispatcher: the herd leader sits queued
     for about two search-lengths, a comfortable window for the event
     loop to admit and attach every twin even under scheduler noise. *)
  let blockers = Array.init (2 * dispatchers) (fun _ -> connect socket) in
  Fun.protect
    ~finally:(fun () ->
      Array.iter close_client herd;
      Array.iter close_client blockers)
  @@ fun () ->
  Array.iteri
    (fun j (_, _, oc) ->
      send_line oc
        (design_line specs ~id:(-1 - j) ~load:(3300. +. float_of_int j)
           ~downtime:77.))
    blockers;
  Array.iteri
    (fun k (_, _, oc) ->
      send_line oc (design_line specs ~id:k ~load:3210. ~downtime:77.))
    herd;
  let coalesced = ref 0 in
  Array.iteri
    (fun k (_, ic, _) ->
      match Protocol.response_of_line (input_line ic) with
      | Ok { outcome = Ok _; response_coalesced; response_id; _ } ->
          if response_id <> Json.Int k then
            failwith "herd: response carries someone else's id";
          if response_coalesced = Some true then incr coalesced
      | Ok { outcome = Error (_, message); _ } ->
          failwith (Printf.sprintf "herd: server error: %s" message)
      | Error message -> failwith (Printf.sprintf "herd: %s" message))
    herd;
  Array.iter
    (fun (_, ic, _) -> ignore (result_of_response (input_line ic)))
    blockers;
  let underlying = design_count () - before - Array.length blockers in
  (!coalesced, underlying)

(* ------------------------------------------------------------------ *)
(* Baseline carry-forward *)

let bench_path = "BENCH_serve.json"

(* The previous run's headline, preserved across regeneration: reuse
   its own "baseline" object if it already carries one, else adopt its
   headline throughput as the new baseline. *)
let read_baseline path =
  if not (Sys.file_exists path) then Json.Null
  else
    let text = In_channel.with_open_text path In_channel.input_all in
    match Json_parse.of_string text with
    | Error _ -> Json.Null
    | Ok (Json.Obj fields) -> (
        match List.assoc_opt "baseline" fields with
        | Some (Json.Obj _ as b) -> b
        | _ -> (
            let rps =
              match List.assoc_opt "throughput_rps" fields with
              | Some (Json.Float r) -> Some r
              | Some (Json.Int r) -> Some (float_of_int r)
              | _ -> None
            in
            match rps with
            | Some r ->
                Json.Obj
                  [
                    ( "schema_version",
                      Option.value
                        (List.assoc_opt "schema_version" fields)
                        ~default:(Json.Int 2) );
                    ("throughput_rps", Json.Float r);
                  ]
            | None -> Json.Null))
    | Ok _ -> Json.Null

let baseline_rps = function
  | Json.Obj fields -> (
      match List.assoc_opt "throughput_rps" fields with
      | Some (Json.Float r) -> Some r
      | Some (Json.Int r) -> Some (float_of_int r)
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The run *)

type outcome = {
  jobs : int;
  dispatchers : int;
  conns : int;
  duration : float;
  cold_requests : int;
  cold_wall : float;
  cold_design : latency_summary;
  warm_requests : int;
  warm_wall : float;
  warm_rps : float;
  warm_design : latency_summary;
  warm_coalesced : int;
  herd_conns : int;
  herd_coalesced : int;
  herd_underlying : int;
  slo_budget_ms : float;
  queue_high_water : int;
  shed : int;
  deadline_exceeded : int;
  slo_requests : int;
  slo_bad : int;
  slo_success_rate : float;
  slo_budget_remaining : float;
  heap_words_before : int;
  heap_words_after : int;
  baseline : Json.t;
}

let run_bench ~conns ~duration () =
  let dir = Filename.temp_file "aved_serve_bench" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let specs = write_specs dir in
  let socket = Filename.concat dir "aved.sock" in
  let jobs = Domain.recommended_domain_count () in
  let config =
    { (Server.default_config (Server.Unix_socket socket)) with Server.jobs }
  in
  if conns + config.Server.dispatchers + 1 > config.Server.max_conns then
    failwith "--conns exceeds the server's connection bound";
  let server = Server.create config in
  let runner = Thread.create Server.run server in
  let ((_, ic, oc) as control) = connect socket in
  let finally () =
    close_client control;
    Server.stop server;
    Thread.join runner;
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  in
  Fun.protect ~finally @@ fun () ->
  let cold_requests, cold_wall, cold_design = run_cold specs ic oc in
  Gc.compact ();
  let heap_words_before = (Gc.stat ()).Gc.heap_words in
  let warm_requests, warm_wall, warm_rps, warm_design, warm_coalesced =
    run_warm specs socket ~conns ~duration
  in
  let herd_coalesced, herd_underlying =
    run_herd specs socket ~conns ~dispatchers:config.Server.dispatchers
      ~control_ic:ic ~control_oc:oc
  in
  Gc.compact ();
  let heap_words_after = (Gc.stat ()).Gc.heap_words in
  let stats =
    result_of_response (rpc ic oc (Protocol.request_line Protocol.Stats []))
  in
  let queue = obj_field stats "queue" in
  let slo = obj_field stats "slo" in
  {
    jobs;
    dispatchers = config.Server.dispatchers;
    conns;
    duration;
    cold_requests;
    cold_wall;
    cold_design;
    warm_requests;
    warm_wall;
    warm_rps;
    warm_design;
    warm_coalesced;
    herd_conns = conns;
    herd_coalesced;
    herd_underlying;
    slo_budget_ms = 1000. *. Aved_obs.Slo.(default_config.latency_budget_s);
    queue_high_water = int_field queue "high_water";
    shed = int_field queue "shed";
    deadline_exceeded = int_field queue "deadline_exceeded";
    slo_requests = int_field slo "requests";
    slo_bad = int_field slo "bad";
    slo_success_rate = float_field slo "success_rate";
    slo_budget_remaining = float_field slo "budget_remaining";
    heap_words_before;
    heap_words_after;
    baseline = read_baseline bench_path;
  }

(* The acceptance gates, evaluated after reporting so a failing run
   still leaves its artifact behind for debugging. *)
let failures o =
  let fails = ref [] in
  if o.warm_design.p99_ms > o.slo_budget_ms then
    fails :=
      Printf.sprintf "warm design p99 %.2f ms exceeds the %.0f ms SLO budget"
        o.warm_design.p99_ms o.slo_budget_ms
      :: !fails;
  let herd_fraction =
    float_of_int o.herd_coalesced /. float_of_int (Int.max 1 o.herd_conns)
  in
  if herd_fraction < 0.9 then
    fails :=
      Printf.sprintf "herd: only %d/%d responses coalesced (< 90%%)"
        o.herd_coalesced o.herd_conns
      :: !fails;
  List.rev !fails

(* ------------------------------------------------------------------ *)
(* Reporting *)

let print_summary indent s =
  Printf.printf "%scount %d, mean %.2f ms, p50 %.2f, p95 %.2f, p99 %.2f\n"
    indent s.count s.mean_ms s.p50_ms s.p95_ms s.p99_ms

let print_human o =
  Printf.printf
    "aved serve bench: jobs=%d dispatchers=%d conns=%d duration=%.0fs\n\n"
    o.jobs o.dispatchers o.conns o.duration;
  Printf.printf "cold (first touch, 1 conn): %d requests in %.3f s\n"
    o.cold_requests o.cold_wall;
  print_summary "  design: " o.cold_design;
  Printf.printf
    "\nwarm (closed loop, %d conns): %d requests in %.3f s = %.1f req/s\n"
    o.conns o.warm_requests o.warm_wall o.warm_rps;
  print_summary "  design: " o.warm_design;
  Printf.printf "  coalesced: %d/%d design responses\n" o.warm_coalesced
    o.warm_design.count;
  (match baseline_rps o.baseline with
  | Some b when b > 0. ->
      Printf.printf "  speedup vs baseline %.1f rps: %.1fx\n" b (o.warm_rps /. b)
  | _ -> ());
  Printf.printf
    "\nherd (%d conns, one identical request): %d coalesced, %d underlying \
     searches\n"
    o.herd_conns o.herd_coalesced o.herd_underlying;
  Printf.printf "\nslo: design p99 %.2f ms vs %.0f ms budget; server window: \
                 %d requests, %d bad, success %.4f, budget remaining %.3f\n"
    o.warm_design.p99_ms o.slo_budget_ms o.slo_requests o.slo_bad
    o.slo_success_rate o.slo_budget_remaining;
  Printf.printf "queue: high water %d, shed %d, deadline-exceeded %d\n"
    o.queue_high_water o.shed o.deadline_exceeded;
  Printf.printf "heap: %d -> %d words after compaction (%+d)\n"
    o.heap_words_before o.heap_words_after
    (o.heap_words_after - o.heap_words_before)

let summary_json s =
  Printf.sprintf
    "{\"count\": %d, \"mean_ms\": %.3f, \"p50_ms\": %.3f, \"p95_ms\": %.3f, \
     \"p99_ms\": %.3f}"
    s.count s.mean_ms s.p50_ms s.p95_ms s.p99_ms

let print_json o =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"schema_version\": 3,\n";
  add "  \"jobs\": %d,\n" o.jobs;
  add "  \"dispatchers\": %d,\n" o.dispatchers;
  add "  \"conns\": %d,\n" o.conns;
  add "  \"duration_seconds\": %.1f,\n" o.duration;
  add "  \"cold\": {\"requests\": %d, \"wall_seconds\": %.6f, \"design\": %s},\n"
    o.cold_requests o.cold_wall (summary_json o.cold_design);
  add
    "  \"warm\": {\"requests\": %d, \"wall_seconds\": %.6f, \
     \"throughput_rps\": %.2f, \"coalesced\": %d, \"design\": %s},\n"
    o.warm_requests o.warm_wall o.warm_rps o.warm_coalesced
    (summary_json o.warm_design);
  add "  \"throughput_rps\": %.2f,\n" o.warm_rps;
  add
    "  \"herd\": {\"connections\": %d, \"coalesced\": %d, \
     \"underlying_searches\": %d},\n"
    o.herd_conns o.herd_coalesced o.herd_underlying;
  add
    "  \"slo\": {\"p99_budget_ms\": %.1f, \"design_p99_ms\": %.3f, \"met\": \
     %b, \"requests\": %d, \"bad\": %d, \"success_rate\": %.6f, \
     \"budget_remaining\": %.6f},\n"
    o.slo_budget_ms o.warm_design.p99_ms
    (o.warm_design.p99_ms <= o.slo_budget_ms)
    o.slo_requests o.slo_bad o.slo_success_rate o.slo_budget_remaining;
  add "  \"queue\": {\"high_water\": %d, \"shed\": %d, \"deadline_exceeded\": %d},\n"
    o.queue_high_water o.shed o.deadline_exceeded;
  add "  \"heap_words_before\": %d,\n" o.heap_words_before;
  add "  \"heap_words_after\": %d,\n" o.heap_words_after;
  (match baseline_rps o.baseline with
  | Some b when b > 0. ->
      add "  \"baseline\": %s,\n" (Json.to_string o.baseline);
      add "  \"speedup_vs_baseline\": %.2f\n" (o.warm_rps /. b)
  | _ -> add "  \"baseline\": null\n");
  add "}\n";
  let oc = open_out bench_path in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf "wrote %s\n" bench_path

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec find_flag name parse default = function
    | f :: v :: _ when String.equal f name -> (
        match parse v with
        | Some v -> v
        | None -> failwith (Printf.sprintf "%s expects a number" name))
    | _ :: rest -> find_flag name parse default rest
    | [] -> default
  in
  let conns =
    find_flag "--conns"
      (fun v ->
        match int_of_string_opt v with
        | Some n when n > 0 -> Some n
        | _ -> None)
      100 args
  in
  let duration =
    find_flag "--duration"
      (fun v ->
        match float_of_string_opt v with
        | Some s when s > 0. && Float.is_finite s -> Some s
        | _ -> None)
      10. args
  in
  let outcome = run_bench ~conns ~duration () in
  if List.mem "json" args then print_json outcome else print_human outcome;
  match failures outcome with
  | [] -> ()
  | fails ->
      List.iter (Printf.eprintf "FAIL: %s\n") fails;
      exit 1
