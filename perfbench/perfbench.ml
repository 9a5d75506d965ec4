(* The repository benchmark: one run of one workload.

     perfbench --workload ecommerce|audit --seed N
               --seconds S --trace 0|1

   Run it through run.py, which builds the daemon and this program
   first. The last line of standard output is the JSON result; with
   --trace 0 it carries the end-to-end metrics, with --trace 1 the
   per-layer ones. Every metric is also printed by name with its unit
   above it. Exits 1 when an answer is wrong, 2 on any other failure. *)

let usage () =
  prerr_endline
    "usage: perfbench --workload ecommerce|audit --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref false in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := Some v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        go rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := v = "1";
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds) with
  | Some w, Some s, Some secs when secs > 0. -> (w, s, secs, !trace)
  | _ -> usage ()

(* Scratch files of one run (specs, socket, daemon log, spans) live in
   a directory of the checkout named after this process. *)
let run_dir () =
  let root = "_perfbench" in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
  let dir = Filename.concat root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
  dir

let () =
  let workload, seed, seconds, trace = parse_args () in
  let dir = run_dir () in
  (* SIGINT and SIGTERM unwind like any failure, so the daemon is
     stopped and reaped on that path too. *)
  Sys.catch_break true;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> raise Sys.Break));
  let outcome =
    try
      match workload with
      | "ecommerce" -> Serving.run ~dir ~seed ~seconds ~trace
      | "audit" -> Audit.run ~dir ~seed ~seconds ~trace
      | _ -> usage ()
    with e ->
      Printf.eprintf "perfbench: %s failed: %s\n" workload (Printexc.to_string e);
      (try
         let ic = open_in (Filename.concat dir "daemon.log") in
         prerr_string (In_channel.input_all ic);
         close_in ic
       with Sys_error _ -> ());
      exit 2
  in
  let t = outcome.Common.table in
  Common.print_table "end-to-end metrics (untraced):" Common.end_to_end t;
  Common.print_table
    (if trace then "per-layer metrics:"
     else "per-layer metrics (traced-replay rows need --trace 1):")
    Common.per_layer t;
  let correct = outcome.failed = 0 in
  print_endline
    (Common.result_line ~correct ~attempted:outcome.attempted
       ~failed:outcome.failed
       (if trace then Common.per_layer else Common.end_to_end)
       t);
  exit (if correct then 0 else 1)
