(* The serving workload: a closed loop against [aved serve] running as
   its own process, with counter scrapes around the timed phase, an
   answer check on a seeded sample, and the in-process traced replay. *)

module Json = Aved_explain.Json
module Protocol = Aved_server.Protocol

(* The ecommerce workload: the daemon's intended traffic on the paper's
   e-commerce service (Fig. 4). [aved serve] runs with one search domain
   and two dispatchers; the client holds two connections in lockstep
   rounds ({!Work.draw_round}). *)
let serve_flags = [ "--jobs"; "1"; "--dispatchers"; "2"; "--trace-sample"; "0" ]
let conns = 2

(* Set-ups per run; [setup_s] is their median. *)
let setups = 7
let warmup_rounds = 60

(* Ops per timed-phase segment ({!Common.segments}): about 1.5 s, with
   fifty ops beyond each segment's p90. *)
let segment_ops = 512

(* Responses recomputed in-process after the run. *)
let sample_size = 200

(* Timed ops after which the daemon's peak RSS is read. Its downtime
   memo keeps every fresh design point (capacity 2^20), so its heap
   grows with every op it serves; read at the end, the peak would
   follow the run's throughput. *)
let rss_ops = 4096

type op = {
  kind : Work.kind;
  latency : float;
  coalesced : bool;
  ok : bool;
}

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let starts_with s prefix =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* A round: send one request per connection, wait for every reply. *)
let run_round conns ~next_id kinds specs =
  let sent =
    Array.mapi
      (fun i kind ->
        let id = !next_id in
        incr next_id;
        let t = Common.now () in
        Client.send conns.(i) (Work.line specs ~id kind);
        t)
      kinds
  in
  let lines, arrived = Client.recv_all conns in
  Array.mapi
    (fun i kind ->
      let line = lines.(i) in
      (* The v2 envelope is compact and ordered, so status and the
         coalesced flag are a fixed prefix: no parse on the hot path. *)
      let head =
        Printf.sprintf "{\"schema_version\":2,\"id\":%d,\"ok\":true,\"coalesced\":"
          (!next_id - Array.length kinds + i)
      in
      let op =
        {
          kind;
          latency = arrived.(i) -. sent.(i);
          coalesced = starts_with line (head ^ "true");
          ok = starts_with line head;
        }
      in
      (op, line))
    kinds

type session = {
  daemon : Client.daemon;
  conns : Client.conn array;
  control : Client.conn;
}

let close_session s =
  Array.iter Client.close s.conns;
  Client.close s.control;
  Client.stop s.daemon

(* One set-up: spawn, connect, first-touch the spec pair, run the
   warm-up slice. Returns the session and the elapsed seconds. *)
let setup ~dir ~seed specs =
  let t0 = Common.now () in
  let daemon =
    Client.spawn
      ~socket:(Filename.concat dir "aved.sock")
      ~log:(Filename.concat dir "daemon.log")
      serve_flags
  in
  let control, conns =
    try
      let control = Client.connect_when_ready daemon in
      (control, Array.init conns (fun _ -> Client.connect daemon.Client.socket))
    with e ->
      Client.stop daemon;
      raise e
  in
  let session = { daemon; conns; control } in
  let rng = Common.stream ~seed ~purpose:Common.purpose_warmup in
  let next_id = ref 1 in
  (try
     for _ = 1 to warmup_rounds do
       let _, kinds = Work.draw_round rng in
       Array.iter
         (fun (op, line) ->
           if not op.ok then failwith ("warm-up request failed: " ^ line))
         (run_round conns ~next_id kinds specs)
     done
   with e ->
     close_session session;
     raise e);
  (session, Common.now () -. t0)

(* ------------------------------------------------------------------ *)
(* Answer check *)

let load_engine ~pool specs =
  let infra, service =
    Aved_spec.Spec.load ~infra_file:specs.Work.infra_file
      ~service_file:specs.Work.service_file
  in
  { Work.config = Aved_search.Search_config.default; pool; infra; service }

(* Recompute a response with the Analytic engine and the same encoders,
   and compare the whole envelope byte for byte. *)
let check_response engine (kind, line) =
  match Protocol.response_of_line line with
  | Error _ -> false
  | Ok r -> (
      match r.Protocol.outcome with
      | Error _ -> false
      | Ok _ ->
          let body = Work.answer (Spans.create ()) engine kind in
          let expected =
            Protocol.ok_response_rendered ~version:2
              ?trace_id:r.Protocol.response_trace_id
              ~coalesced:(r.Protocol.response_coalesced = Some true)
              ~id:r.Protocol.response_id body
          in
          String.equal expected line
          || begin
               Printf.printf "answer mismatch on %s:\n  daemon:     %s\n  in-process: %s\n"
                 (Work.verb_name kind) line expected;
               false
             end)

(* ------------------------------------------------------------------ *)
(* Scrape-derived per-layer metrics *)

let work_verbs = [ "design"; "frontier"; "explain" ]

let stage_delta before after stage =
  List.fold_left
    (fun (sum, count) verb ->
      let series = Printf.sprintf "server_stage_%s_%s_seconds" verb stage in
      let d suffix =
        Client.prom after (series ^ suffix) -. Client.prom before (series ^ suffix)
      in
      (sum +. d "_sum", count +. d "_count"))
    (0., 0.) work_verbs

let stage_mean before after stage =
  let sum, count = stage_delta before after stage in
  Common.ratio sum count

let layer_metrics t ~before ~after ~ops ~computed ~explains =
  let dc name = Client.counter after name -. Client.counter before name in
  let dg name = Client.gauge after name -. Client.gauge before name in
  let per_op name = Common.ratio (dc name) computed in
  let put = Common.put t in
  put "server.parse_us" (1e6 *. stage_mean before after "parse");
  put "server.encode_us" (1e6 *. stage_mean before after "encode");
  put "server.write_us" (1e6 *. stage_mean before after "write");
  put "server.queue_ms" (1e3 *. stage_mean before after "queue");
  put "server.handle_ms" (1e3 *. stage_mean before after "handle");
  put "server.coalesced_frac" (Common.ratio (dc "server.coalesced.requests") ops);
  let hits = float_of_int (after.Client.spec_hits - before.Client.spec_hits) in
  let misses = float_of_int (after.Client.spec_misses - before.Client.spec_misses) in
  put "server.spec_cache.hit_ratio" (Common.ratio hits (hits +. misses));
  let generated = dc "search.candidates.generated" in
  let evaluated = dc "search.candidates.evaluated" in
  put "search.generated_per_op" (per_op "search.candidates.generated");
  put "search.evaluated_per_op" (per_op "search.candidates.evaluated");
  put "search.evaluated_ratio" (Common.ratio evaluated generated);
  put "search.pruned_by_incumbent_per_op" (per_op "search.candidates.pruned_by_incumbent");
  let reused = dc "search.eval.downtime.reused" in
  put "search.eval_reuse_ratio"
    (Common.ratio reused (reused +. dc "search.eval.downtime.fresh"));
  let handle_s, _ = stage_delta before after "handle" in
  put "search.candidates_per_s" (Common.ratio evaluated handle_s);
  put "search.combos_tested_per_op" (per_op "search.service.combos_tested");
  let queued = dc "parallel.tasks.queued" and inline = dc "parallel.tasks.inline" in
  put "parallel.tasks_per_op" (Common.ratio (queued +. inline) computed);
  put "parallel.inline_ratio" (Common.ratio inline (queued +. inline));
  put "parallel.incumbent.cas_retries_per_op" (per_op "parallel.incumbent.cas_retries");
  let mh = dc "avail.memo.hits" and mm = dc "avail.memo.misses" in
  put "avail.memo.hit_ratio" (Common.ratio mh (mh +. mm));
  put "avail.memo.calls_per_op" (per_op "avail.engine.memoized.calls");
  put "markov.birth_death.solves_per_op" (per_op "markov.birth_death.solves");
  put "explain.records_per_op" (Common.ratio (dc "explain.records.noted") explains);
  put "gc.minor_words_per_op" (Common.ratio (dg "server.gc.minor_words") computed);
  put "gc.major_collections_per_op"
    (Common.ratio (dg "server.gc.major_collections") computed)

let verb_latency_metrics t ops =
  let lat verb =
    List.filter_map
      (fun o -> if Work.verb_name o.kind = verb then Some (1e3 *. o.latency) else None)
      ops
  in
  Common.put t "server.verb.design.p50_ms" (Common.median (lat "design"));
  Common.put t "server.verb.frontier.p50_ms" (Common.median (lat "frontier"));
  Common.put t "server.verb.explain.p50_ms" (Common.median (lat "explain"));
  Common.put t "server.verb.explain.p90_ms" (Common.quantile (lat "explain") 0.9)

(* ------------------------------------------------------------------ *)
(* Traced replay *)

(* Replays the first rounds of the measured stream in this process, in
   the daemon's call order, each pass from a cold spec cache and memo:
   an unmeasured priming pass that warms the heap, code and pool, then
   untraced, traced, traced and untraced again, so that drift over the
   passes cancels in the overhead. *)
let replay ~seed ~rounds specs t =
  let pool = Aved_parallel.Pool.create ~jobs:1 in
  Fun.protect ~finally:(fun () -> Aved_parallel.Pool.shutdown pool) @@ fun () ->
  let pass spans =
    let rng = Common.stream ~seed ~purpose:Common.purpose_measured in
    let cache = Aved_server.Spec_cache.create () in
    let config =
      Aved_search.Search_config.default
      |> Aved_search.Search_config.with_engine (Aved_avail.Evaluate.memoized ())
    in
    let span name f = Spans.with_span spans name f in
    (* First touch of the spec pair: what Spec_cache does on a miss. *)
    Spans.with_op spans "bench.first_touch" (fun () ->
        let _ : Aved_model.Infrastructure.t * Aved_model.Service.t =
          span "spec.load" (fun () ->
              Aved_spec.Spec.load ~infra_file:specs.Work.infra_file
                ~service_file:specs.Work.service_file)
        in
        ignore
          (span "check.spec_check" (fun () ->
               Aved_check.Check.check_files
                 [ specs.Work.infra_file; specs.Work.service_file ])));
    let t0 = Common.now () in
    let ops = ref 0 in
    let id = ref 0 in
    for _ = 1 to rounds do
      let hot, kinds = Work.draw_round rng in
      (* A hot round computes once in the daemon; the twin coalesces. *)
      let kinds = if hot then [| kinds.(0) |] else kinds in
      Array.iter
        (fun kind ->
          incr id;
          incr ops;
          Spans.with_op spans ("bench.op." ^ Work.verb_name kind) (fun () ->
              let line = Work.line specs ~id:!id kind in
              let request =
                span "server.request_of_line" (fun () ->
                    match Protocol.request_of_line line with
                    | Ok r -> r
                    | Error (_, msg) -> failwith msg)
              in
              let loaded =
                span "server.spec_cache.load" (fun () ->
                    Aved_server.Spec_cache.load cache
                      ~infra_file:specs.Work.infra_file
                      ~service_file:specs.Work.service_file)
              in
              let engine =
                {
                  Work.config;
                  pool;
                  infra = loaded.Aved_server.Spec_cache.infra;
                  service = loaded.Aved_server.Spec_cache.service;
                }
              in
              let body = Work.answer spans engine kind in
              ignore
                (span "server.ok_response_rendered" (fun () ->
                     Protocol.ok_response_rendered ~version:request.Protocol.version
                       ~id:request.Protocol.id body))))
        kinds
    done;
    (Common.now () -. t0, !ops)
  in
  ignore (pass (Spans.create ()));
  let spans = Spans.create ~enabled:true () in
  let u1, ops = pass (Spans.create ()) in
  let t1, _ = pass spans in
  let t2, _ = pass spans in
  let u2, _ = pass (Spans.create ()) in
  let ms name = 1e3 *. Common.mean (Spans.durations spans name) in
  let us name = 1e6 *. Common.mean (Spans.durations spans name) in
  Common.put t "spec.load_ms" (ms "spec.load");
  Common.put t "check.spec_check_ms" (ms "check.spec_check");
  Common.put t "api.design.encode_us" (us "api.design.encode");
  Common.put t "api.frontier.encode_us" (us "api.frontier.encode");
  Common.put t "api.explain.encode_us" (us "api.explain.encode");
  Common.put t "explain.build_ms" (ms "explain.build");
  Common.put t "search.design_ms" (ms "search.design");
  Common.put t "search.frontier_ms" (ms "search.frontier");
  Spans.report spans t ~ops:(2 * ops) ~untraced_s:(u1 +. u2) ~traced_s:(t1 +. t2);
  spans

(* ------------------------------------------------------------------ *)
(* The run *)

type measured = {
  ops : op list;
  rounds : int;
  sample : (Work.kind * string) list;
      (** Seeded reservoir sample of ok responses. *)
  elapsed : float;
  segments : Common.segment list;  (** CPU is the daemon's. *)
  steal : float;
  rss : float;
  before : Client.scrape;
  after : Client.scrape;
}

(* The timed phase: closed-loop rounds for [seconds], between two
   scrapes of the daemon's counters. *)
let timed session ~seed ~seconds specs =
  let pid = string_of_int session.daemon.Client.pid in
  let before = Client.scrape session.control in
  let ticks0 = Common.cpu_ticks () in
  let rng = Common.stream ~seed ~purpose:Common.purpose_measured in
  let sample_rng = Common.stream ~seed ~purpose:Common.purpose_sample in
  let reservoir = Array.make sample_size None in
  let ops = ref [] and rounds = ref 0 and sampled = ref 0 and rss = ref None in
  let next_id = ref 1 in
  let segs =
    Common.segments ~size:segment_ops ~cpu:(fun () -> Common.cpu_seconds pid)
  in
  let t0 = Common.now () in
  let deadline = t0 +. seconds in
  while Common.now () < deadline do
    let _, kinds = Work.draw_round rng in
    incr rounds;
    Array.iter
      (fun (op, line) ->
        ops := op :: !ops;
        Common.record segs ~latency_ms:(1e3 *. op.latency)
          ~computed:(not op.coalesced);
        if op.ok then begin
          if !sampled < sample_size then reservoir.(!sampled) <- Some (op.kind, line)
          else begin
            let j = Random.State.int sample_rng (!sampled + 1) in
            if j < sample_size then reservoir.(j) <- Some (op.kind, line)
          end;
          incr sampled
        end)
      (run_round session.conns ~next_id kinds specs);
    if !rss = None && !rounds * conns >= rss_ops then
      rss := Some (Common.peak_rss_mib pid);
    Common.tick segs
  done;
  let segments = Common.finish segs in
  let elapsed = Common.now () -. t0 in
  let steal = Common.steal_share ticks0 (Common.cpu_ticks ()) in
  let after = Client.scrape session.control in
  {
    ops = List.rev !ops;
    rounds = !rounds;
    sample = List.filter_map Fun.id (Array.to_list reservoir);
    elapsed;
    segments;
    steal;
    rss = (match !rss with Some r -> r | None -> Common.peak_rss_mib pid);
    before;
    after;
  }

let run ~dir ~seed ~seconds ~trace =
  let specs =
    {
      Work.infra_file = Filename.concat dir "infrastructure.spec";
      service_file = Filename.concat dir "ecommerce.spec";
    }
  in
  write_file specs.Work.infra_file Aved.Experiments.infrastructure_spec;
  write_file specs.Work.service_file Aved.Experiments.ecommerce_spec;
  let t = Common.table () in
  (* Set up [setups] times; keep the last daemon for the timed phase. *)
  let rec set_up k times =
    let session, elapsed = setup ~dir ~seed specs in
    if k = setups then (session, elapsed :: times)
    else begin
      close_session session;
      set_up (k + 1) (elapsed :: times)
    end
  in
  let session, setup_times = set_up 1 [] in
  Common.put t "setup_s" (Common.median setup_times);
  Printf.printf "set-ups: %s s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") setup_times));
  let m =
    Fun.protect ~finally:(fun () -> close_session session) (fun () ->
        timed session ~seed ~seconds specs)
  in
  let count = float_of_int (List.length m.ops) in
  let of_verb verb = List.filter (fun o -> Work.verb_name o.kind = verb) m.ops in
  let coalesced = List.length (List.filter (fun o -> o.coalesced) m.ops) in
  let computed = count -. float_of_int coalesced in
  Common.put_segments t m.segments;
  Common.put t "peak_rss_mb" m.rss;
  Common.put t "client.p99_ms"
    (Common.quantile (List.map (fun o -> 1e3 *. o.latency) m.ops) 0.99);
  layer_metrics t ~before:m.before ~after:m.after ~ops:count ~computed
    ~explains:(float_of_int (List.length (of_verb "explain")));
  verb_latency_metrics t m.ops;
  (* Answer check, outside the timing. *)
  let not_ok = List.length (List.filter (fun o -> not o.ok) m.ops) in
  let mismatched =
    Aved_parallel.Pool.run ~jobs:1 @@ fun pool ->
    let engine = load_engine ~pool specs in
    List.length (List.filter (fun r -> not (check_response engine r)) m.sample)
  in
  Printf.printf
    "ecommerce: %d rounds, %.0f ops (design %d, frontier %d, explain %d), %d coalesced, \
     %.1f s in %d segments (host steal %.1f%%); %d/%d sampled answers match \
     byte for byte; %d error envelopes\n"
    m.rounds count
    (List.length (of_verb "design"))
    (List.length (of_verb "frontier"))
    (List.length (of_verb "explain"))
    coalesced m.elapsed (List.length m.segments) (100. *. m.steal)
    (List.length m.sample - mismatched)
    (List.length m.sample) not_ok;
  if trace then begin
    let rounds = min m.rounds 400 in
    let spans = replay ~seed ~rounds specs t in
    Printf.printf "untraced daemon p50 %.3f ms\n" (Common.get t "p50_ms");
    Spans.write_chrome spans (Filename.concat dir "spans.json")
  end;
  { Common.attempted = List.length m.ops; failed = not_ok + mismatched; table = t }
