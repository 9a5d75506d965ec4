(* Token-level scan of spec files. Works on the raw Line_lexer stream,
   before (and regardless of whether) the real parsers accept the file,
   so every name and expression gets a precise file:line:col span. The
   scan mirrors the parsers' block structure but never raises: problems
   become diagnostics. *)

module L = Aved_spec.Line_lexer
module Expr = Aved_expr.Expr
module Duration = Aved_units.Duration
module Perf_function = Aved_perf.Perf_function
module Slowdown = Aved_perf.Slowdown
module Int_range = Aved_model.Int_range

type def = { name : string; span : Diagnostic.span }

type param_info =
  | Enum_param of string list
  | Duration_param of { lo_min : float; hi_min : float }

type mech_info = { m_def : def; m_params : (string * param_info) list }

type infra_scan = {
  i_file : string;
  i_diags : Diagnostic.t list;
  components : def list;
  mechanisms : mech_info list;
  resources : def list;
  element_refs : string list;  (** Components placed in some resource. *)
  mech_refs : string list;  (** Mechanisms referenced by components. *)
}

type service_scan = {
  s_file : string;
  s_diags : Diagnostic.t list;
  resource_refs : (string * Diagnostic.span) list;
  service_mech_refs : (string * Diagnostic.span) list;
}

let classify lines =
  if List.exists (fun l -> L.leading_key l = "application") lines then `Service
  else `Infra

let span file (line : L.line) (attr : L.attr) =
  { Diagnostic.file; line = line.lineno; col = attr.value_col }

let find_def defs name = List.find_opt (fun d -> String.equal d.name name) defs

let duplicate_diag ~what ~first (d : def) =
  Diagnostic.errorf ~span:d.span ~code:"duplicate-name"
    "%s %s is already defined at line %d" what d.name first.Diagnostic.line

(* The value of the leading attribute names the block; missing values
   are the parser's problem. *)
let leading_def file (line : L.line) =
  match line.attrs with
  | attr :: _ when attr.value <> "" ->
      Some { name = attr.value; span = span file line attr }
  | _ -> None

let mechanism_ref_of (attr : L.attr) =
  let v = attr.value in
  let n = String.length v in
  if n >= 3 && v.[0] = '<' && v.[n - 1] = '>' then Some (String.sub v 1 (n - 2))
  else None

(* --- infrastructure -------------------------------------------------- *)

type infra_ctx =
  | I_top
  | I_component
  | I_mechanism of (string * param_info) list ref
  | I_resource of resource_acc

and resource_acc = {
  r_def : def;
  mutable r_elements : string list;
  mutable r_depends : (string * Diagnostic.span) list;
}

let parse_param_info range_text =
  if String.contains range_text ';' then
    let minutes d = Duration.seconds d /. 60. in
    let body =
      let n = String.length range_text in
      if n >= 2 && range_text.[0] = '[' && range_text.[n - 1] = ']' then
        String.sub range_text 1 (n - 2)
      else range_text
    in
    match String.split_on_char ';' body with
    | bounds :: _ -> (
        match String.index_opt bounds '-' with
        | Some i -> (
            let lo = String.trim (String.sub bounds 0 i) in
            let hi =
              String.trim
                (String.sub bounds (i + 1) (String.length bounds - i - 1))
            in
            match (Duration.of_string_opt lo, Duration.of_string_opt hi) with
            | Some lo, Some hi ->
                Duration_param { lo_min = minutes lo; hi_min = minutes hi }
            | _ -> Duration_param { lo_min = 1.; hi_min = 1440. })
        | None -> Duration_param { lo_min = 1.; hi_min = 1440. })
    | [] -> Duration_param { lo_min = 1.; hi_min = 1440. }
  else
    let n = String.length range_text in
    let body =
      if n >= 2 && range_text.[0] = '[' && range_text.[n - 1] = ']' then
        String.sub range_text 1 (n - 2)
      else range_text
    in
    Enum_param
      (String.split_on_char ',' body
      |> List.concat_map (String.split_on_char ' ')
      |> List.map String.trim
      |> List.filter (fun s -> s <> ""))

let scan_infra ~file lines =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let components = ref [] and mechanisms = ref [] and resources = ref [] in
  let element_refs = ref [] and mech_refs = ref [] in
  let failure_modes = ref [] (* of the current component *) in
  let ctx = ref I_top in
  let close_resource () =
    match !ctx with
    | I_resource acc ->
        List.iter
          (fun (dep, dspan) ->
            if not (List.mem dep acc.r_elements) then
              add
                (Diagnostic.errorf ~span:dspan ~code:"dangling-ref"
                   "dependency %s is not an element of resource %s" dep
                   acc.r_def.name))
          acc.r_depends
    | I_top | I_component | I_mechanism _ -> ()
  in
  let collect_component_mech_refs (line : L.line) =
    List.iter
      (fun (attr : L.attr) ->
        match attr.key with
        | "mttr" | "loss_window" -> (
            match mechanism_ref_of attr with
            | Some m -> mech_refs := (m, span file line attr) :: !mech_refs
            | None -> ())
        | _ -> ())
      line.attrs
  in
  List.iter
    (fun (line : L.line) ->
      match L.leading_key line with
      | "component" -> (
          match (!ctx, leading_def file line) with
          | I_resource acc, Some d ->
              acc.r_elements <- d.name :: acc.r_elements;
              element_refs := (d.name, d.span) :: !element_refs;
              List.iter
                (fun (attr : L.attr) ->
                  if attr.key = "depend" && attr.value <> "null" then
                    acc.r_depends <-
                      (attr.value, span file line attr) :: acc.r_depends)
                line.attrs
          | _, Some d ->
              close_resource ();
              (match find_def !components d.name with
              | Some first ->
                  add (duplicate_diag ~what:"component" ~first:first.span d)
              | None -> components := d :: !components);
              failure_modes := [];
              collect_component_mech_refs line;
              ctx := I_component
          | _, None -> ())
      | "failure" -> (
          match (!ctx, leading_def file line) with
          | I_component, Some d ->
              (match find_def !failure_modes d.name with
              | Some first ->
                  add (duplicate_diag ~what:"failure mode" ~first:first.span d)
              | None -> failure_modes := d :: !failure_modes);
              collect_component_mech_refs line
          | _ -> ())
      | "mechanism" -> (
          close_resource ();
          match leading_def file line with
          | Some d ->
              let params = ref [] in
              (match
                 List.find_opt
                   (fun (m : mech_info) -> String.equal m.m_def.name d.name)
                   !mechanisms
               with
              | Some first ->
                  add (duplicate_diag ~what:"mechanism" ~first:first.m_def.span d)
              | None ->
                  mechanisms := { m_def = d; m_params = [] } :: !mechanisms);
              ctx := I_mechanism params
          | None -> ())
      | "param" -> (
          match (!ctx, leading_def file line) with
          | I_mechanism params, Some d ->
              let info =
                match L.find_value line "range" with
                | Some text -> parse_param_info text
                | None -> Enum_param []
              in
              params := (d.name, info) :: !params;
              (* Attach to the mechanism being built. *)
              (match !mechanisms with
              | m :: rest ->
                  mechanisms :=
                    { m with m_params = List.rev !params } :: rest
              | [] -> ())
          | _ -> ())
      | "resource" -> (
          close_resource ();
          match leading_def file line with
          | Some d ->
              (match find_def !resources d.name with
              | Some first ->
                  add (duplicate_diag ~what:"resource" ~first:first.span d)
              | None -> resources := d :: !resources);
              ctx := I_resource { r_def = d; r_elements = []; r_depends = [] }
          | None -> ())
      | _ -> ())
    lines;
  close_resource ();
  let components = List.rev !components in
  let mechanisms = List.rev !mechanisms in
  let resources = List.rev !resources in
  (* Dangling mechanism references, with the reference site's span. *)
  List.iter
    (fun (m, mspan) ->
      if
        not
          (List.exists
             (fun (mi : mech_info) -> String.equal mi.m_def.name m)
             mechanisms)
      then
        add
          (Diagnostic.errorf ~span:mspan ~code:"dangling-ref"
             "mechanism <%s> is not defined" m))
    !mech_refs;
  (* Dangling element references, at the reference site. *)
  let known c = List.exists (fun (d : def) -> String.equal d.name c) components in
  List.iter
    (fun (c, csp) ->
      if not (known c) then
        add
          (Diagnostic.errorf ~span:csp ~code:"dangling-ref"
             "resource element %s is not a component" c))
    (List.rev !element_refs);
  (* Components never placed in a resource are dead weight. *)
  List.iter
    (fun (d : def) ->
      if not (List.mem_assoc d.name !element_refs) then
        add
          (Diagnostic.warningf ~span:d.span ~code:"unused-def"
             "component %s is not an element of any resource" d.name))
    components;
  {
    i_file = file;
    i_diags = List.rev !diags;
    components;
    mechanisms;
    resources;
    element_refs = List.sort_uniq String.compare (List.map fst !element_refs);
    mech_refs = List.sort_uniq String.compare (List.map fst !mech_refs);
  }

(* --- service --------------------------------------------------------- *)

type option_acc = {
  o_resource : def;
  mutable o_n_active : Int_range.t option;
  mutable o_performance : (Perf_function.t * Diagnostic.span) option;
  mutable o_mech : (string * mech_info option) option;
      (** Current mechanism line: name and, when an infrastructure is
          available, its declaration. *)
}

let probe_bindings ?(n = 1.) (mech : mech_info option) =
  let params =
    match mech with
    | None -> []
    | Some m ->
        List.filter_map
          (fun (name, info) ->
            match info with
            | Duration_param { lo_min; hi_min } ->
                Some (name, Float.sqrt (Float.max 1e-9 (lo_min *. hi_min)))
            | Enum_param _ -> None)
          m.m_params
  in
  ("n", n) :: params

let dim_env (mech : mech_info option) v =
  if String.equal v "n" then Some Dim.Scalar
  else
    match mech with
    | None -> None
    | Some m -> (
        match List.assoc_opt v m.m_params with
        | Some (Duration_param _) -> Some Dim.Duration
        | Some (Enum_param _) | None -> None)

let scan_service ~file ~(infra : infra_scan option) lines =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let tiers = ref [] in
  let resource_refs = ref [] and service_mech_refs = ref [] in
  let tier_options = ref [] (* resource defs of the current tier *) in
  let current : option_acc option ref = ref None in
  let expr_reporter sp severity ~code message =
    add (Diagnostic.make ~span:sp severity ~code message)
  in
  let dim_reporter sp severity message =
    add (Diagnostic.make ~span:sp severity ~code:"dim-mismatch" message)
  in
  let close_option () =
    match !current with
    | None -> ()
    | Some acc ->
        (match (acc.o_performance, acc.o_n_active) with
        | Some (perf, psp), Some range ->
            Expr_lint.check_monotone_performance
              ~n_values:(Int_range.spread range ~count:64)
              ~report:(expr_reporter psp) perf
        | _ -> ());
        current := None
  in
  let check_expression ~sp ~mech ~vocabulary expr =
    (* Free variables against the declared environment. *)
    List.iter
      (fun v ->
        if not (List.mem v vocabulary) then
          add
            (Diagnostic.errorf ~span:sp ~code:"free-var"
               "unknown variable %s (expected one of: %s)" v
               (String.concat ", " vocabulary)))
      (Expr.variables expr);
    ignore (Dim.infer ~env:(dim_env mech) ~report:(dim_reporter sp) expr);
    Expr_lint.lint
      ~bindings:(probe_bindings mech)
      ~report:(fun severity ~code message ->
        add (Diagnostic.make ~span:sp severity ~code message))
      expr
  in
  List.iter
    (fun (line : L.line) ->
      (match L.leading_key line with
      | "application" -> ()
      | "tier" -> (
          close_option ();
          tier_options := [];
          match leading_def file line with
          | Some d ->
              (match find_def !tiers d.name with
              | Some first -> add (duplicate_diag ~what:"tier" ~first:first.span d)
              | None -> tiers := d :: !tiers)
          | None -> ())
      | "resource" -> (
          close_option ();
          match leading_def file line with
          | Some d ->
              (match find_def !tier_options d.name with
              | Some first ->
                  add
                    (Diagnostic.errorf ~span:d.span ~code:"duplicate-name"
                       "resource option %s is already listed in this tier at \
                        line %d"
                       d.name first.span.Diagnostic.line)
              | None -> tier_options := d :: !tier_options);
              resource_refs := (d.name, d.span) :: !resource_refs;
              (match infra with
              | Some i
                when not
                       (List.exists
                          (fun (r : def) -> String.equal r.name d.name)
                          i.resources) ->
                  add
                    (Diagnostic.errorf ~span:d.span ~code:"dangling-ref"
                       "resource %s is not defined in the infrastructure"
                       d.name)
              | _ -> ());
              current :=
                Some
                  {
                    o_resource = d;
                    o_n_active = None;
                    o_performance = None;
                    o_mech = None;
                  }
          | None -> ())
      | _ -> ());
      (* Option-level attributes can share a line with [resource=]. *)
      List.iter
        (fun (attr : L.attr) ->
          let sp = span file line attr in
          match (attr.key, !current) with
          | "nActive", Some acc -> (
              match Int_range.of_string attr.value with
              | range -> acc.o_n_active <- Some range
              | exception Invalid_argument message ->
                  add
                    (Diagnostic.errorf ~span:sp ~code:"bad-range" "%s" message))
          | "performance", Some acc -> (
              match Perf_function.of_string_located attr.value with
              | Error { message; position } ->
                  let sp =
                    match position with
                    | Some p -> { sp with Diagnostic.col = attr.value_col + p }
                    | None -> sp
                  in
                  add
                    (Diagnostic.errorf ~span:sp ~code:"parse-error"
                       "bad performance function: %s" message)
              | Ok perf ->
                  acc.o_performance <- Some (perf, sp);
                  (match Perf_function.as_expr perf with
                  | Some expr ->
                      check_expression ~sp ~mech:None ~vocabulary:[ "n" ] expr
                  | None -> ()))
          | "mechanism", Some acc ->
              let name = attr.value in
              service_mech_refs := (name, sp) :: !service_mech_refs;
              let decl =
                match infra with
                | None -> None
                | Some i ->
                    List.find_opt
                      (fun (m : mech_info) -> String.equal m.m_def.name name)
                      i.mechanisms
              in
              (match (infra, decl) with
              | Some _, None ->
                  add
                    (Diagnostic.errorf ~span:sp ~code:"dangling-ref"
                       "mechanism %s is not defined in the infrastructure"
                       name)
              | _ -> ());
              acc.o_mech <- Some (name, decl)
          | "mperformance", Some acc -> (
              let mech =
                match acc.o_mech with Some (_, decl) -> decl | None -> None
              in
              (match (acc.o_mech, infra) with
              | None, _ ->
                  add
                    (Diagnostic.errorf ~span:sp ~code:"orphan-mperformance"
                       "mperformance before any mechanism line")
              | Some _, _ -> ());
              (* Guards name enum parameters of the mechanism. *)
              (match (attr.args, mech) with
              | Some args, Some m ->
                  List.iter
                    (fun entry ->
                      match String.index_opt entry '=' with
                      | None -> ()
                      | Some i ->
                          let key = String.trim (String.sub entry 0 i) in
                          let value =
                            String.trim
                              (String.sub entry (i + 1)
                                 (String.length entry - i - 1))
                          in
                          (match List.assoc_opt key m.m_params with
                          | Some (Enum_param values) ->
                              if not (List.mem value values) then
                                add
                                  (Diagnostic.errorf ~span:sp
                                     ~code:"bad-guard"
                                     "%s is not a value of parameter %s \
                                      (one of: %s)"
                                     value key
                                     (String.concat ", " values))
                          | Some (Duration_param _) ->
                              add
                                (Diagnostic.errorf ~span:sp ~code:"bad-guard"
                                   "guard parameter %s is not an enum" key)
                          | None ->
                              add
                                (Diagnostic.errorf ~span:sp ~code:"bad-guard"
                                   "guard names unknown parameter %s" key)))
                    (String.split_on_char ',' args)
              | _ -> ());
              match Slowdown.of_string_located attr.value with
              | Error { message; position } ->
                  add
                    (Diagnostic.errorf
                       ~span:{ sp with Diagnostic.col = attr.value_col + position }
                       ~code:"parse-error" "bad mperformance: %s" message)
              | Ok slowdown -> (
                  match Slowdown.as_expr slowdown with
                  | None -> ()
                  | Some expr ->
                      let vocabulary =
                        "n"
                        ::
                        (match mech with
                        | None -> []
                        | Some m ->
                            List.filter_map
                              (fun (name, info) ->
                                match info with
                                | Duration_param _ -> Some name
                                | Enum_param _ -> None)
                              m.m_params)
                      in
                      (* Without an infrastructure the vocabulary is
                         unknown; skip the free-variable check then. *)
                      if infra <> None && mech <> None then
                        check_expression ~sp ~mech ~vocabulary expr
                      else begin
                        ignore
                          (Dim.infer ~env:(dim_env mech)
                             ~report:(dim_reporter sp) expr);
                        Expr_lint.lint
                          ~bindings:(probe_bindings mech)
                          ~report:(fun severity ~code message ->
                            add
                              (Diagnostic.make ~span:sp severity ~code message))
                          expr
                      end))
          | _ -> ())
        line.attrs)
    lines;
  close_option ();
  {
    s_file = file;
    s_diags = List.rev !diags;
    resource_refs = List.rev !resource_refs;
    service_mech_refs = List.rev !service_mech_refs;
  }

(* --- cross-file liveness --------------------------------------------- *)

let liveness ~(infra : infra_scan) ~(services : service_scan list) =
  if services = [] then []
  else begin
    let diags = ref [] in
    let add d = diags := d :: !diags in
    let used_resources =
      List.concat_map (fun s -> List.map fst s.resource_refs) services
    in
    let service_mechs =
      List.concat_map (fun s -> List.map fst s.service_mech_refs) services
    in
    List.iter
      (fun (r : def) ->
        if not (List.mem r.name used_resources) then
          add
            (Diagnostic.warningf ~span:r.span ~code:"unused-def"
               "resource %s is not used by any service" r.name))
      infra.resources;
    List.iter
      (fun (m : mech_info) ->
        if
          (not (List.mem m.m_def.name infra.mech_refs))
          && not (List.mem m.m_def.name service_mechs)
        then
          add
            (Diagnostic.warningf ~span:m.m_def.span ~code:"unused-def"
               "mechanism %s is referenced by no component or service"
               m.m_def.name))
      infra.mechanisms;
    List.rev !diags
  end
