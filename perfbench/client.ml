(* The daemon under test as a separate process, and a newline-framed
   client connection to its Unix-domain socket. *)

module Json = Aved_explain.Json
module Protocol = Aved_server.Protocol

type daemon = { pid : int; socket : string }

let daemon_exe = "_build/default/bin/main.exe"

(* Spawn [aved serve] with [flags] on [socket] and wait until it accepts
   connections. Its stderr goes to [log]. *)
let spawn ~socket ~log flags =
  (try Sys.remove socket with Sys_error _ -> ());
  let err = Unix.openfile log [ Unix.O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let argv = Array.of_list ([ daemon_exe; "serve"; "--socket"; socket ] @ flags) in
  let pid = Unix.create_process daemon_exe argv devnull devnull err in
  Unix.close err;
  Unix.close devnull;
  { pid; socket }

(* Seconds a SIGTERM drain may take before the daemon is killed. *)
let grace = 15.

(* Stop with SIGTERM (graceful drain) and reap, escalating to SIGKILL if
   the drain takes longer than [grace] seconds. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Common.now () +. grace in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Common.now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

(* A connection with its own read buffer, so several connections can be
   multiplexed with [select] and each reply timestamped on arrival. *)
type conn = { fd : Unix.file_descr; mutable pending : string; chunk : Bytes.t }

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  { fd; pending = ""; chunk = Bytes.create 65536 }

(* Seconds the daemon may take to start accepting connections. *)
let start_timeout = 30.

(* Connect, retrying while the daemon is still starting. *)
let connect_when_ready d =
  let deadline = Common.now () +. start_timeout in
  let rec go () =
    match connect d.socket with
    | c -> c
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _)
      when Common.now () < deadline ->
        (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
        | 0, _ -> ()
        | _ -> failwith "aved serve exited during start-up");
        Unix.sleepf 0.002;
        go ()
  in
  go ()

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  let data = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length data then
      go (off + Unix.write c.fd data off (Bytes.length data - off))
  in
  go 0

(* A complete line already buffered, if any. *)
let take_line c =
  match String.index_opt c.pending '\n' with
  | None -> None
  | Some i ->
      let s = c.pending in
      c.pending <- String.sub s (i + 1) (String.length s - i - 1);
      Some (String.sub s 0 i)

let fill c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> failwith "connection closed by the daemon"
  | n -> c.pending <- c.pending ^ Bytes.sub_string c.chunk 0 n

let rec recv c =
  match take_line c with
  | Some line -> line
  | None ->
      fill c;
      recv c

let rpc c line =
  send c line;
  recv c

(* Wait for one reply on each connection in [conns]; returns the lines
   and their arrival times, in the order of [conns]. *)
let recv_all conns =
  let n = Array.length conns in
  let lines = Array.make n "" and times = Array.make n 0. in
  let pending = ref [] in
  Array.iteri
    (fun i c ->
      match take_line c with
      | Some l ->
          lines.(i) <- l;
          times.(i) <- Common.now ()
      | None -> pending := i :: !pending)
    conns;
  while !pending <> [] do
    let fds = List.map (fun i -> conns.(i).fd) !pending in
    let ready, _, _ =
      try Unix.select fds [] [] (-1.)
      with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
    in
    pending :=
      List.filter
        (fun i ->
          let c = conns.(i) in
          if List.mem c.fd ready then begin
            fill c;
            match take_line c with
            | Some l ->
                lines.(i) <- l;
                times.(i) <- Common.now ();
                false
            | None -> true
          end
          else true)
        !pending
  done;
  (lines, times)

(* ------------------------------------------------------------------ *)
(* Scraping the daemon's own counters *)

type scrape = {
  counters : (string * int) list;
  gauges : (string * float) list;
  spec_hits : int;
  spec_misses : int;
  prom : (string * float) list;  (** Prometheus samples by series name. *)
}

let field name = function
  | Json.Obj fields -> List.assoc_opt name fields
  | _ -> None

let num = function
  | Some (Json.Int i) -> float_of_int i
  | Some (Json.Float f) -> f
  | _ -> 0.

let result_of line =
  match Protocol.response_of_line line with
  | Ok { outcome = Ok result; _ } -> result
  | Ok { outcome = Error (_, msg); _ } -> failwith ("scrape failed: " ^ msg)
  | Error msg -> failwith ("unparsable scrape: " ^ msg)

(* Prometheus text: "name value" sample lines, comments skipped. *)
let parse_prometheus body =
  String.split_on_char '\n' body
  |> List.filter_map (fun line ->
         if line = "" || line.[0] = '#' then None
         else
           match String.rindex_opt line ' ' with
           | None -> None
           | Some i -> (
               let name = String.sub line 0 i in
               let name =
                 match String.index_opt name ' ' with
                 | Some j -> String.sub name 0 j
                 | None -> name
               in
               match
                 float_of_string_opt
                   (String.sub line (i + 1) (String.length line - i - 1))
               with
               | Some v -> Some (name, v)
               | None -> None))

let scrape c =
  let stats = result_of (rpc c (Protocol.request_line Protocol.Stats [])) in
  let metrics = result_of (rpc c (Protocol.request_line Protocol.Metrics [])) in
  let assoc_of conv = function
    | Some (Json.Obj fields) -> List.map (fun (k, v) -> (k, conv (Some v))) fields
    | _ -> []
  in
  let spec = field "spec_cache" stats in
  let body =
    match field "body" metrics with Some (Json.String s) -> s | _ -> ""
  in
  {
    counters = assoc_of (fun v -> int_of_float (num v)) (field "counters" stats);
    gauges = assoc_of num (field "gauges" stats);
    spec_hits = int_of_float (num (Option.bind spec (field "hits")));
    spec_misses = int_of_float (num (Option.bind spec (field "misses")));
    prom = parse_prometheus body;
  }

let counter s name = float_of_int (Option.value ~default:0 (List.assoc_opt name s.counters))
let gauge s name = Option.value ~default:0. (List.assoc_opt name s.gauges)
let prom s name = Option.value ~default:0. (List.assoc_opt name s.prom)
