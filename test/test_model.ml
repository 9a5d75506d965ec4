module Duration = Aved_units.Duration
module Money = Aved_units.Money
open Aved_model

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Int_range *)

let test_int_range_parse () =
  Alcotest.(check (list int)) "singleton" [ 1 ]
    (Int_range.to_list (Int_range.of_string "[1]"));
  Alcotest.(check (list int)) "arithmetic" [ 1; 2; 3; 4; 5 ]
    (Int_range.to_list (Int_range.of_string "[1-5,+1]"));
  Alcotest.(check (list int)) "arithmetic step" [ 2; 4; 6 ]
    (Int_range.to_list (Int_range.of_string "[2-7,+2]"));
  Alcotest.(check (list int)) "geometric" [ 1; 2; 4; 8 ]
    (Int_range.to_list (Int_range.of_string "[1-8,*2]"));
  Alcotest.(check (list int)) "explicit" [ 1; 2; 5 ]
    (Int_range.to_list (Int_range.of_string "[5,1,2]"));
  List.iter
    (fun text ->
      Alcotest.(check bool) (Printf.sprintf "reject %S" text) true
        (match Int_range.of_string text with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ ""; "1-5"; "[1-5]"; "[1-5,;2]"; "[a-b,+1]"; "[5-1,+1]" ]

let test_int_range_queries () =
  let r = Int_range.of_string "[2-10,+2]" in
  Alcotest.(check bool) "mem in" true (Int_range.mem r 6);
  Alcotest.(check bool) "mem off-step" false (Int_range.mem r 5);
  Alcotest.(check bool) "mem outside" false (Int_range.mem r 12);
  Alcotest.(check int) "min" 2 (Int_range.min_value r);
  Alcotest.(check int) "max" 10 (Int_range.max_value r);
  Alcotest.(check (option int)) "next_above exact" (Some 6) (Int_range.next_above r 6);
  Alcotest.(check (option int)) "next_above between" (Some 6) (Int_range.next_above r 5);
  Alcotest.(check (option int)) "next_above beyond" None (Int_range.next_above r 11);
  Alcotest.(check string) "to_string roundtrip" "[2-10,+2]" (Int_range.to_string r);
  Alcotest.(check int) "max off-step" 8
    (Int_range.max_value (Int_range.of_string "[2-10,+3]"));
  Alcotest.(check int) "max geometric" 64
    (Int_range.max_value (Int_range.of_string "[1-100,*4]"));
  Alcotest.(check int) "min geometric" 3
    (Int_range.min_value (Int_range.of_string "[3-100,*2]"));
  Alcotest.(check int) "max explicit" 9
    (Int_range.max_value (Int_range.of_string "[5,9,1]"));
  Alcotest.(check int) "min explicit" 1
    (Int_range.min_value (Int_range.of_string "[5,9,1]"));
  Alcotest.(check (list int)) "between" [ 4; 6; 8 ]
    (Int_range.between r ~lo:3 ~hi:9);
  Alcotest.(check (list int)) "between empty" []
    (Int_range.between r ~lo:7 ~hi:5);
  (* Ranges ending at [max_int] enumerate without wrapping around. *)
  let top = Int_range.arithmetic ~lo:(max_int - 10) ~hi:max_int ~step:4 in
  Alcotest.(check (list int)) "to_list near max_int"
    [ max_int - 10; max_int - 6; max_int - 2 ]
    (Int_range.to_list top);
  Alcotest.(check (list int)) "between near max_int"
    [ max_int - 6; max_int - 2 ]
    (Int_range.between top ~lo:(max_int - 9) ~hi:max_int);
  Alcotest.(check int) "max geometric near max_int" ((max_int lsr 1) + 1)
    (Int_range.max_value (Int_range.geometric ~lo:1 ~hi:max_int ~factor:2))

(* ------------------------------------------------------------------ *)
(* Components & mechanisms *)

let maintenance =
  Mechanism.make ~name:"maint"
    ~parameters:
      [ { param_name = "level"; range = Mechanism.Enum [ "lo"; "hi" ] } ]
    ~cost:
      (Mechanism.By_enum
         {
           param = "level";
           table = [ ("lo", Money.of_float 100.); ("hi", Money.of_float 300.) ];
         })
    ~mttr:
      (Mechanism.By_enum
         {
           param = "level";
           table =
             [ ("lo", Duration.of_hours 24.); ("hi", Duration.of_hours 4.) ];
         })
    ()

let checkpoint =
  Mechanism.make ~name:"ckpt"
    ~parameters:
      [
        {
          param_name = "interval";
          range =
            Mechanism.Duration_geometric
              {
                lo = Duration.of_minutes 1.;
                hi = Duration.of_hours 24.;
                factor = 2.;
              };
        };
      ]
    ~cost:(Mechanism.Fixed Money.zero)
    ~loss_window:(Mechanism.Of_param "interval") ()

let machine =
  Component.make ~name:"machine" ~cost_inactive:(Money.of_float 1000.)
    ~cost_active:(Money.of_float 1200.)
    ~failure_modes:
      [
        Component.failure_mode ~name:"hard" ~mtbf:(Duration.of_days 500.)
          ~repair:(Component.Repair_by_mechanism "maint")
          ~detect_time:(Duration.of_minutes 2.) ();
        Component.failure_mode ~name:"soft" ~mtbf:(Duration.of_days 50.) ();
      ]
    ()

let os =
  Component.make ~name:"os" ~cost_active:Money.zero
    ~failure_modes:
      [ Component.failure_mode ~name:"soft" ~mtbf:(Duration.of_days 60.) () ]
    ()

let app =
  Component.make ~name:"app" ~cost_active:(Money.of_float 500.)
    ~cost_inactive:Money.zero
    ~failure_modes:
      [ Component.failure_mode ~name:"soft" ~mtbf:(Duration.of_days 60.) () ]
    ~loss_window:(Component.Loss_window_by_mechanism "ckpt") ()

let resource =
  Resource.make ~name:"node"
    ~reconfig_time:(Duration.of_seconds 10.)
    ~elements:
      [
        Resource.element ~component:"machine"
          ~startup:(Duration.of_seconds 30.) ();
        Resource.element ~component:"os" ~depends_on:"machine"
          ~startup:(Duration.of_minutes 2.) ();
        Resource.element ~component:"app" ~depends_on:"os"
          ~startup:(Duration.of_minutes 1.) ();
      ]
    ()

let infra =
  Infrastructure.make ~components:[ machine; os; app ]
    ~mechanisms:[ maintenance; checkpoint ] ~resources:[ resource ]

let test_mechanism_settings () =
  let settings = Mechanism.settings maintenance in
  Alcotest.(check int) "enum settings" 2 (List.length settings);
  let ck_settings = Mechanism.settings checkpoint in
  (* 1m doubling to 24h: 1m..1024m then the endpoint 1440m. *)
  Alcotest.(check int) "geometric settings" 12 (List.length ck_settings);
  (match List.rev ck_settings with
  | last :: _ -> (
      match List.assoc "interval" last with
      | Mechanism.Duration_value d ->
          check_float "endpoint included" (24. *. 3600.) (Duration.seconds d)
      | Mechanism.Enum_value _ -> Alcotest.fail "expected duration")
  | [] -> Alcotest.fail "no settings");
  let lo_setting = [ ("level", Mechanism.Enum_value "lo") ] in
  check_float "cost lookup" 100.
    (Money.to_float (Mechanism.cost_of maintenance lo_setting));
  (match Mechanism.mttr_of maintenance lo_setting with
  | Some d -> check_float "mttr lookup" 24. (Duration.hours d)
  | None -> Alcotest.fail "expected mttr");
  match
    Mechanism.loss_window_of checkpoint
      [ ("interval", Mechanism.Duration_value (Duration.of_minutes 8.)) ]
  with
  | Some d -> check_float "loss window of param" 8. (Duration.minutes d)
  | None -> Alcotest.fail "expected loss window"

let test_mechanism_validation () =
  let reject name f =
    Alcotest.(check bool) name true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  reject "unknown param in table" (fun () ->
      Mechanism.make ~name:"bad" ~parameters:[]
        ~cost:(Mechanism.By_enum { param = "level"; table = [] })
        ());
  reject "incomplete table" (fun () ->
      Mechanism.make ~name:"bad"
        ~parameters:
          [ { param_name = "level"; range = Mechanism.Enum [ "a"; "b" ] } ]
        ~cost:
          (Mechanism.By_enum
             { param = "level"; table = [ ("a", Money.zero) ] })
        ());
  reject "cost of duration param" (fun () ->
      Mechanism.make ~name:"bad"
        ~parameters:
          [
            {
              param_name = "d";
              range =
                Mechanism.Duration_geometric
                  {
                    lo = Duration.of_seconds 1.;
                    hi = Duration.of_seconds 10.;
                    factor = 2.;
                  };
            };
          ]
        ~cost:(Mechanism.Of_param "d") ());
  reject "empty enum" (fun () ->
      Mechanism.make ~name:"bad"
        ~parameters:[ { param_name = "level"; range = Mechanism.Enum [] } ]
        ~cost:(Mechanism.Fixed Money.zero) ())

let test_component_validation () =
  Alcotest.(check bool) "duplicate mode" true
    (match
       Component.make ~name:"c" ~cost_active:Money.zero
         ~failure_modes:
           [
             Component.failure_mode ~name:"soft" ~mtbf:(Duration.of_days 1.) ();
             Component.failure_mode ~name:"soft" ~mtbf:(Duration.of_days 2.) ();
           ]
         ()
     with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "zero mtbf" true
    (match Component.failure_mode ~name:"m" ~mtbf:Duration.zero () with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_float "default inactive cost" 500.
    (Money.to_float
       (Component.cost
          (Component.make ~name:"c" ~cost_active:(Money.of_float 500.) ())
          Component.Inactive));
  Alcotest.(check (list string)) "mechanism references" [ "ckpt" ]
    (Component.mechanism_references app);
  Alcotest.(check (list string)) "repair references" [ "maint" ]
    (Component.mechanism_references machine)

let test_resource_structure () =
  Alcotest.(check (list string)) "component names"
    [ "machine"; "os"; "app" ]
    (Resource.component_names resource);
  Alcotest.(check (list string)) "dependents of machine" [ "os"; "app" ]
    (Resource.dependents resource "machine");
  Alcotest.(check (list string)) "dependents of app" []
    (Resource.dependents resource "app");
  Alcotest.(check (list string)) "affected by os failure" [ "os"; "app" ]
    (Resource.affected_by_failure resource "os");
  check_float "restart after os failure" 180.
    (Duration.seconds (Resource.restart_time resource "os"));
  check_float "restart after machine failure" 210.
    (Duration.seconds (Resource.restart_time resource "machine"));
  check_float "total startup" 210.
    (Duration.seconds (Resource.total_startup_time resource));
  Alcotest.(check (list string)) "startup order"
    [ "machine"; "os"; "app" ]
    (Resource.startup_order resource)

let test_downward_closed_subsets () =
  (* A 3-chain has exactly the 4 prefixes. *)
  Alcotest.(check (list (list string)))
    "chain prefixes"
    [ []; [ "machine" ]; [ "machine"; "os" ]; [ "machine"; "os"; "app" ] ]
    (Resource.downward_closed_subsets resource);
  (* A fork: machine + two independent apps on it. *)
  let fork =
    Resource.make ~name:"fork"
      ~elements:
        [
          Resource.element ~component:"machine" ();
          Resource.element ~component:"os" ~depends_on:"machine" ();
          Resource.element ~component:"app" ~depends_on:"machine" ();
        ]
      ()
  in
  Alcotest.(check int) "fork subsets" 5
    (List.length (Resource.downward_closed_subsets fork))

let test_resource_validation () =
  let reject name f =
    Alcotest.(check bool) name true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  reject "unknown dependency" (fun () ->
      Resource.make ~name:"r"
        ~elements:[ Resource.element ~component:"a" ~depends_on:"ghost" () ]
        ());
  reject "self dependency" (fun () ->
      Resource.make ~name:"r"
        ~elements:[ Resource.element ~component:"a" ~depends_on:"a" () ]
        ());
  reject "cycle" (fun () ->
      Resource.make ~name:"r"
        ~elements:
          [
            Resource.element ~component:"a" ~depends_on:"b" ();
            Resource.element ~component:"b" ~depends_on:"a" ();
          ]
        ());
  reject "duplicate component" (fun () ->
      Resource.make ~name:"r"
        ~elements:
          [ Resource.element ~component:"a" (); Resource.element ~component:"a" () ]
        ());
  reject "empty" (fun () -> Resource.make ~name:"r" ~elements:[] ())

let test_infrastructure_validation () =
  let reject name f =
    Alcotest.(check bool) name true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  reject "resource with unknown component" (fun () ->
      Infrastructure.make ~components:[] ~mechanisms:[]
        ~resources:
          [
            Resource.make ~name:"r"
              ~elements:[ Resource.element ~component:"ghost" () ]
              ();
          ]);
  reject "repair via unknown mechanism" (fun () ->
      Infrastructure.make ~components:[ machine ] ~mechanisms:[]
        ~resources:[]);
  reject "mechanism without needed mttr" (fun () ->
      Infrastructure.make ~components:[ machine ]
        ~mechanisms:
          [
            Mechanism.make ~name:"maint" ~parameters:[]
              ~cost:(Mechanism.Fixed Money.zero) ();
          ]
        ~resources:[]);
  reject "duplicate component names" (fun () ->
      Infrastructure.make ~components:[ os; os ] ~mechanisms:[] ~resources:[]);
  Alcotest.(check bool) "valid accepted" true
    (Infrastructure.find_component infra "machine" <> None)

let test_resource_mechanisms () =
  Alcotest.(check (list string)) "referenced mechanisms"
    [ "maint"; "ckpt" ]
    (List.map
       (fun (m : Mechanism.t) -> m.name)
       (Infrastructure.resource_mechanisms infra resource))

(* ------------------------------------------------------------------ *)
(* Design & cost *)

let settings =
  [
    ("maint", [ ("level", Mechanism.Enum_value "lo") ]);
    ( "ckpt",
      [ ("interval", Mechanism.Duration_value (Duration.of_minutes 4.)) ] );
  ]

let design n_active n_spare spare_active =
  Design.tier_design ~tier_name:"t" ~resource:"node" ~n_active ~n_spare
    ~spare_active_components:spare_active ~mechanism_settings:settings ()

let test_design_cost () =
  (* Active node: machine 1200 + os 0 + app 500 + maint 100 = 1800.
     Inactive spare: machine 1000 + 0 + 0 + maint 100 = 1100. *)
  check_float "actives only" 5400.
    (Money.to_float (Design.tier_cost infra (design 3 0 [])));
  check_float "with inactive spare" 6500.
    (Money.to_float (Design.tier_cost infra (design 3 1 [])));
  (* Spare with machine+os active: 1200 + 0 + 0(app inactive) + 100. *)
  check_float "hot spare hardware" 6700.
    (Money.to_float
       (Design.tier_cost infra (design 3 1 [ "machine"; "os" ])));
  let d = Design.make ~service_name:"svc" ~tiers:[ design 2 1 [] ] in
  check_float "service cost" 4700. (Money.to_float (Design.cost infra d))

let test_design_validation () =
  let reject name d =
    Alcotest.(check bool) name true
      (match
         Design.validate_against (Design.make ~service_name:"s" ~tiers:[ d ]) infra
       with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  Design.validate_against
    (Design.make ~service_name:"s" ~tiers:[ design 2 1 [] ])
    infra;
  reject "non-downward-closed spare set" (design 2 1 [ "app" ]);
  reject "missing mechanism setting"
    (Design.tier_design ~tier_name:"t" ~resource:"node" ~n_active:1 ());
  reject "unknown spare component" (design 2 1 [ "ghost" ]);
  Alcotest.(check bool) "n_active positive" true
    (match design 0 0 [] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_design_max_instances () =
  let limited =
    Component.make ~name:"scarce" ~cost_active:Money.zero ~max_instances:2 ()
  in
  let r =
    Resource.make ~name:"r"
      ~elements:[ Resource.element ~component:"scarce" () ]
      ()
  in
  let inf =
    Infrastructure.make ~components:[ limited ] ~mechanisms:[] ~resources:[ r ]
  in
  let d n =
    Design.make ~service_name:"s"
      ~tiers:[ Design.tier_design ~tier_name:"t" ~resource:"r" ~n_active:n () ]
  in
  Design.validate_against (d 2) inf;
  Alcotest.(check bool) "over limit" true
    (match Design.validate_against (d 3) inf with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Mech_impact *)

let test_mech_impact () =
  let impact =
    [
      Mech_impact.case
        ~guards:[ ("loc", "central") ]
        (Aved_perf.Slowdown.of_string "max(10/interval, 1)");
      Mech_impact.case
        ~guards:[ ("loc", "peer") ]
        (Aved_perf.Slowdown.of_string "max(20/interval, 1)");
    ]
  in
  let setting loc =
    [
      ("loc", Mechanism.Enum_value loc);
      ("interval", Mechanism.Duration_value (Duration.of_minutes 2.));
    ]
  in
  check_float "central" 5. (Mech_impact.eval impact ~setting:(setting "central") ~n:4);
  check_float "peer" 10. (Mech_impact.eval impact ~setting:(setting "peer") ~n:4);
  Alcotest.(check bool) "no matching case" true
    (match
       Mech_impact.eval impact
         ~setting:[ ("loc", Mechanism.Enum_value "moon") ]
         ~n:1
     with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let unguarded = Mech_impact.unguarded (Aved_perf.Slowdown.of_string "2") in
  check_float "unguarded" 2. (Mech_impact.eval unguarded ~setting:[] ~n:1)

let () =
  Alcotest.run "model"
    [
      ( "int-range",
        [
          Alcotest.test_case "parse" `Quick test_int_range_parse;
          Alcotest.test_case "queries" `Quick test_int_range_queries;
        ] );
      ( "mechanism",
        [
          Alcotest.test_case "settings and lookups" `Quick
            test_mechanism_settings;
          Alcotest.test_case "validation" `Quick test_mechanism_validation;
        ] );
      ( "component",
        [ Alcotest.test_case "validation" `Quick test_component_validation ] );
      ( "resource",
        [
          Alcotest.test_case "structure" `Quick test_resource_structure;
          Alcotest.test_case "downward-closed subsets" `Quick
            test_downward_closed_subsets;
          Alcotest.test_case "validation" `Quick test_resource_validation;
        ] );
      ( "infrastructure",
        [
          Alcotest.test_case "validation" `Quick
            test_infrastructure_validation;
          Alcotest.test_case "resource mechanisms" `Quick
            test_resource_mechanisms;
        ] );
      ( "design",
        [
          Alcotest.test_case "cost" `Quick test_design_cost;
          Alcotest.test_case "validation" `Quick test_design_validation;
          Alcotest.test_case "max instances" `Quick test_design_max_instances;
        ] );
      ( "mech-impact",
        [ Alcotest.test_case "evaluation" `Quick test_mech_impact ] );
    ]
