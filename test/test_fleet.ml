(* The fleet simulator: merge laws for the streaming aggregates, shard
   reduction vs the sequential fold (jobs=1 vs jobs=4 byte-equality),
   snapshot/resume equivalence, spec/aggregate JSON round-trips, and the
   heartbeat.gasm assembly round-trip.

   Float caveat: float addition is commutative but only associative up to
   rounding, so the associativity properties draw from dyadic rationals
   (multiples of 1/16 with bounded magnitude) where every sum is exact. *)

module Fleet = Gecko_fleet
module Acc = Gecko_util.Stats.Acc
module Metrics = Gecko_obs.Metrics
module Json = Gecko_obs.Json
module Workbench = Gecko_harness.Workbench
module Asm = Gecko_isa.Asm

(* --- generators ------------------------------------------------------ *)

let dyadic_gen =
  QCheck.Gen.map (fun k -> float_of_int k /. 16.) (QCheck.Gen.int_range (-65536) 65536)

let dyadic_list =
  QCheck.make
    ~print:(fun l -> String.concat ";" (List.map string_of_float l))
    QCheck.Gen.(list_size (int_bound 24) dyadic_gen)

let acc_equal (a : Acc.t) (b : Acc.t) =
  a.Acc.n = b.Acc.n
  && Float.equal a.Acc.sum b.Acc.sum
  && Float.equal a.Acc.sumsq b.Acc.sumsq
  && Float.equal a.Acc.min_v b.Acc.min_v
  && Float.equal a.Acc.max_v b.Acc.max_v

(* --- Stats.Acc merge laws -------------------------------------------- *)

let prop_acc_identity =
  QCheck.Test.make ~count:100 ~name:"Acc: empty is a two-sided identity"
    dyadic_list (fun xs ->
      let a = Acc.of_list xs in
      acc_equal (Acc.merge Acc.empty a) a && acc_equal (Acc.merge a Acc.empty) a)

let prop_acc_commutative =
  QCheck.Test.make ~count:100 ~name:"Acc: merge is commutative"
    (QCheck.pair dyadic_list dyadic_list) (fun (xs, ys) ->
      let a = Acc.of_list xs and b = Acc.of_list ys in
      acc_equal (Acc.merge a b) (Acc.merge b a))

let prop_acc_associative =
  QCheck.Test.make ~count:100 ~name:"Acc: merge is associative (dyadic inputs)"
    (QCheck.triple dyadic_list dyadic_list dyadic_list) (fun (xs, ys, zs) ->
      let a = Acc.of_list xs and b = Acc.of_list ys and c = Acc.of_list zs in
      acc_equal (Acc.merge (Acc.merge a b) c) (Acc.merge a (Acc.merge b c)))

let prop_acc_merge_is_concat =
  QCheck.Test.make ~count:100 ~name:"Acc: merge of splits equals fold of whole"
    (QCheck.pair dyadic_list dyadic_list) (fun (xs, ys) ->
      acc_equal
        (Acc.merge (Acc.of_list xs) (Acc.of_list ys))
        (Acc.of_list (xs @ ys)))

(* --- Metrics merge laws ---------------------------------------------- *)

(* A registry is described by a small op list; [build] replays it into a
   fresh registry.  Names come from a tiny fixed pool so merges overlap. *)
type op = Incr of int * int | Set_gauge of int * float | Observe of int * float

let op_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun i by -> Incr (i, by)) (int_bound 2) (int_range 1 50);
        map2 (fun i v -> Set_gauge (i, v)) (int_bound 2) dyadic_gen;
        map2
          (fun i v -> Observe (i, Float.abs v +. 0.0625))
          (int_bound 2) dyadic_gen;
      ])

let ops_arb =
  QCheck.make
    ~print:(fun l -> Printf.sprintf "<%d ops>" (List.length l))
    QCheck.Gen.(list_size (int_bound 16) op_gen)

let build ops =
  let r = Metrics.create () in
  List.iter
    (function
      | Incr (i, by) -> Metrics.incr ~by (Metrics.counter r (Printf.sprintf "c%d" i))
      | Set_gauge (i, v) -> Metrics.set_gauge (Metrics.gauge r (Printf.sprintf "g%d" i)) v
      | Observe (i, v) -> Metrics.observe (Metrics.histogram r (Printf.sprintf "h%d" i)) v)
    ops;
  r

let persist r = Json.to_string (Metrics.to_persist r)

let merged rs =
  let dst = Metrics.create () in
  List.iter (fun r -> Metrics.merge_into dst r) rs;
  dst

let prop_metrics_identity =
  QCheck.Test.make ~count:80 ~name:"Metrics: empty registry is an identity"
    ops_arb (fun ops ->
      let a = build ops in
      persist (merged [ Metrics.create (); a ]) = persist a
      && persist (merged [ a; Metrics.create () ]) = persist a)

let prop_metrics_commutative =
  QCheck.Test.make ~count:80 ~name:"Metrics: merge is commutative"
    (QCheck.pair ops_arb ops_arb) (fun (xs, ys) ->
      persist (merged [ build xs; build ys ])
      = persist (merged [ build ys; build xs ]))

let prop_metrics_associative =
  QCheck.Test.make ~count:80
    ~name:"Metrics: merge is associative (dyadic inputs)"
    (QCheck.triple ops_arb ops_arb ops_arb) (fun (xs, ys, zs) ->
      let left = merged [ merged [ build xs; build ys ]; build zs ] in
      let right = merged [ build xs; merged [ build ys; build zs ] ] in
      persist left = persist right)

let prop_metrics_persist_roundtrip =
  QCheck.Test.make ~count:80 ~name:"Metrics: to_persist/of_persist is exact"
    ops_arb (fun ops ->
      let r = build ops in
      persist (Metrics.of_persist (Metrics.to_persist r)) = persist r)

let prop_metrics_quantile_monotone =
  (* Quantiles of a merged-then-persisted registry must be monotone in p
     — the estimator walks cumulative bucket counts, so any violation
     means the merge or the round-trip corrupted a count. *)
  QCheck.Test.make ~count:80
    ~name:"Metrics: quantile is monotone in p after merge_into + persist"
    (QCheck.pair ops_arb ops_arb) (fun (xs, ys) ->
      let r =
        Metrics.of_persist
          (Metrics.to_persist (merged [ build xs; build ys ]))
      in
      let ps = [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ] in
      List.for_all
        (fun i ->
          let h = Metrics.histogram r (Printf.sprintf "h%d" i) in
          let qs = List.map (Metrics.quantile h) ps in
          let rec mono = function
            | a :: (b :: _ as rest) -> a <= b && mono rest
            | _ -> true
          in
          mono qs)
        [ 0; 1; 2 ])

(* --- telemetry sketch and monoid laws -------------------------------- *)

module Telemetry = Fleet.Telemetry

let latency_list =
  (* Non-negative dyadic seconds (multiples of 1/1024) spanning many
     sketch buckets: the sketch's [sum] is float addition, exact only on
     dyadic inputs — same caveat as the Acc properties above. *)
  QCheck.make
    ~print:(fun l -> String.concat ";" (List.map string_of_float l))
    QCheck.Gen.(
      list_size (int_bound 24)
        (map (fun k -> float_of_int k /. 1024.) (int_range 0 100000)))

let sketch_of_list xs = List.fold_left Telemetry.Sketch.add Telemetry.Sketch.empty xs

let prop_sketch_merge_is_concat =
  QCheck.Test.make ~count:100
    ~name:"Sketch: merge of splits equals fold of whole; JSON exact"
    (QCheck.pair latency_list latency_list) (fun (xs, ys) ->
      let m = Telemetry.Sketch.merge (sketch_of_list xs) (sketch_of_list ys) in
      let whole = sketch_of_list (xs @ ys) in
      Json.to_string (Telemetry.Sketch.to_json m)
      = Json.to_string (Telemetry.Sketch.to_json whole)
      && Json.to_string
           (Telemetry.Sketch.to_json
              (Telemetry.Sketch.of_json (Telemetry.Sketch.to_json m)))
         = Json.to_string (Telemetry.Sketch.to_json m))

let prop_sketch_quantile_monotone =
  QCheck.Test.make ~count:100 ~name:"Sketch: quantile is monotone in q"
    latency_list (fun xs ->
      let s = sketch_of_list xs in
      let qs =
        List.map (Telemetry.Sketch.quantile s)
          [ 0.0; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ]
      in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      mono qs)

(* --- fleet campaign -------------------------------------------------- *)

let small_spec =
  (* Small enough for the test suite, busy enough to exercise attacks. *)
  Fleet.Spec.make ~devices:64 ~attackers:2 ~duration:0.02 ~shard_size:5
    ~seed:7 ()

let report_string spec =
  match (Fleet.Campaign.run spec).Fleet.Campaign.report with
  | Some r -> Json.to_string (Fleet.Report.to_json r)
  | None -> Alcotest.fail "campaign did not complete"

(* Full 32-device shards, as the CLI runs them. *)
let fleet_512 =
  Fleet.Spec.make ~devices:512 ~attackers:2 ~duration:0.004 ~shard_size:32
    ~seed:13 ~power_dbm:40. ()

let test_jobs_byte_equality spec () =
  let saved = Workbench.jobs () in
  Fun.protect
    ~finally:(fun () -> Workbench.set_jobs saved)
    (fun () ->
      Workbench.set_jobs 1;
      let serial = report_string spec in
      Workbench.set_jobs 4;
      let parallel = report_string spec in
      Alcotest.(check string)
        "jobs=1 and jobs=4 merged reports are byte-identical" serial parallel)

let test_resume_equals_uninterrupted ~max_shards spec () =
  let uninterrupted = report_string spec in
  let snap = Filename.temp_file "gecko_fleet" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove snap with Sys_error _ -> ())
    (fun () ->
      let partial = Fleet.Campaign.run ~snapshot_path:snap ~max_shards spec in
      Alcotest.(check bool)
        "interrupted campaign yields no report"
        true (partial.Fleet.Campaign.report = None);
      let resume = Fleet.Campaign.load_snapshot snap in
      Alcotest.(check bool)
        "snapshot holds only the completed shards" true
        (List.length (snd resume) = max_shards);
      let resumed = Fleet.Campaign.run ~resume spec in
      Alcotest.(check int)
        "resume takes the snapshotted shards as done" max_shards
        resumed.Fleet.Campaign.resumed_shards;
      Alcotest.(check int)
        "resume re-runs only the missing devices"
        (spec.Fleet.Spec.devices - partial.Fleet.Campaign.devices_run)
        resumed.Fleet.Campaign.devices_run;
      match resumed.Fleet.Campaign.report with
      | None -> Alcotest.fail "resumed campaign did not complete"
      | Some r ->
          Alcotest.(check string)
            "resumed report equals the uninterrupted one" uninterrupted
            (Json.to_string (Fleet.Report.to_json r)))

let telemetry_stream spec path =
  let config =
    { Telemetry.default_config with Telemetry.tel_path = Some path }
  in
  ignore (Fleet.Campaign.run ~telemetry:config spec);
  let contents = In_channel.with_open_bin path In_channel.input_all in
  (* Drop the one wall-clock record; everything else must be sim-pure. *)
  String.split_on_char '\n' contents
  |> List.filter (fun l ->
         not (String.starts_with ~prefix:"{\"nondeterministic\":" l))
  |> String.concat "\n"

let test_telemetry_jobs_byte_equality () =
  let saved = Workbench.jobs () in
  let tmp = Filename.temp_file "gecko_tel" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Workbench.set_jobs saved;
      try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      Workbench.set_jobs 1;
      let serial = telemetry_stream small_spec tmp in
      Workbench.set_jobs 4;
      let parallel = telemetry_stream small_spec tmp in
      Alcotest.(check bool) "stream has a header and shard records" true
        (List.length (String.split_on_char '\n' serial) > 2);
      Alcotest.(check string)
        "jobs=1 and jobs=4 telemetry streams are byte-identical" serial
        parallel)

let test_replay_matches_campaign () =
  let r =
    Fleet.Campaign.run ~telemetry:Telemetry.default_config small_spec
  in
  let tel =
    match r.Fleet.Campaign.telemetry with
    | Some t -> t
    | None -> Alcotest.fail "telemetry-armed campaign produced no telemetry"
  in
  match tel.Telemetry.outliers with
  | [] -> Alcotest.fail "campaign surfaced no outliers to drill into"
  | top :: _ ->
      let rp =
        Fleet.Campaign.replay ~device_id:top.Telemetry.o_device small_spec
      in
      let record t =
        (* Compare through the persisted outlier form — exactly what the
           stream carries. *)
        match
          List.find_opt
            (fun o -> o.Telemetry.o_device = top.Telemetry.o_device)
            t.Telemetry.outliers
        with
        | Some o ->
            Json.to_string
              (Telemetry.to_json
                 { (Telemetry.empty ~top_k:1) with Telemetry.outliers = [ o ] })
        | None -> Alcotest.fail "replay lost the outlier record"
      in
      Alcotest.(check string)
        "replayed outlier record equals the campaign's" (record tel)
        (record rp.Fleet.Campaign.rp_telemetry);
      Alcotest.(check bool) "flight dump is non-empty" true
        (Gecko_obs.Flight.length rp.Fleet.Campaign.rp_flight > 0);
      Alcotest.(check int)
        "replayed corruption count matches the record"
        top.Telemetry.o_corruptions
        rp.Fleet.Campaign.rp_agg.Fleet.Agg.corruptions;
      (* The bridge to the shrinker produces a well-formed repro. *)
      let repro = Fleet.Campaign.shrink_repro rp in
      Alcotest.(check bool) "shrink repro is non-trivial" true
        (Gecko_faultinject.Shrink.size repro > 0)

let test_snapshot_roundtrip () =
  let spec =
    Fleet.Spec.make ~devices:8 ~duration:0.01 ~shard_size:4 ~seed:3 ()
  in
  let devices, field = Fleet.Campaign.elaborate spec in
  let plan = Fleet.Campaign.shard_plan spec field devices 0 in
  let shared = Fleet.Shard.share ~spec [ plan ] in
  let sr = Fleet.Campaign.run_shard ~spec ~shared 0 plan in
  let json = Fleet.Campaign.snapshot_json spec [ sr ] in
  let spec', shards' = Fleet.Campaign.parse_snapshot (Json.to_string json) in
  Alcotest.(check bool) "spec round-trips" true (Fleet.Spec.equal spec spec');
  Alcotest.(check string)
    "shard result round-trips exactly"
    (Json.to_string (Fleet.Campaign.shard_to_json sr))
    (Json.to_string (Fleet.Campaign.shard_to_json (List.hd shards')))

let test_elaborate_deterministic () =
  let spec = Fleet.Spec.make ~devices:32 ~seed:5 () in
  let d1, f1 = Fleet.Campaign.elaborate spec in
  let d2, f2 = Fleet.Campaign.elaborate spec in
  Alcotest.(check bool) "device assignments are pure" true (d1 = d2);
  let exposures f =
    Array.map
      (fun (d : Fleet.Campaign.device) ->
        Fleet.Field.exposure_seconds
          (Fleet.Field.schedule_at f ~x:d.Fleet.Campaign.x ~y:d.Fleet.Campaign.y))
      d1
  in
  Alcotest.(check bool) "field schedules are pure" true (exposures f1 = exposures f2)

let test_spec_json_roundtrip () =
  let spec =
    Fleet.Spec.make ~devices:100 ~attackers:3 ~duration:0.125 ~area_m:50.
      ~shard_size:9 ~workload_mix:[ "crc32"; "fir" ]
      ~scheme_mix:[ Gecko_core.Scheme.Gecko; Gecko_core.Scheme.Gecko_noprune ]
      ~board_mix:[ Fleet.Spec.Bench; Fleet.Spec.Attack_rig ]
      ~freq_mhz:13.56 ~power_dbm:33. ~seed:42 ()
  in
  Alcotest.(check bool)
    "spec JSON round-trips" true
    (Fleet.Spec.equal spec (Fleet.Spec.of_json (Fleet.Spec.to_json spec)))

let test_spec_rejects_nonsense () =
  let base = Fleet.Spec.make ~devices:4 ~seed:1 () in
  List.iter
    (fun (label, spec) ->
      Alcotest.(check bool)
        label true
        (match Fleet.Spec.validate spec with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [
      ("zero devices", { base with Fleet.Spec.devices = 0 });
      ("zero shard size", { base with Fleet.Spec.shard_size = 0 });
      ("negative duration", { base with Fleet.Spec.duration = -1. });
      ("empty workload mix", { base with Fleet.Spec.workload_mix = [] });
      ("unknown workload", { base with Fleet.Spec.workload_mix = [ "nope" ] });
      ("empty scheme mix", { base with Fleet.Spec.scheme_mix = [] });
      ("NaN duration", { base with Fleet.Spec.duration = Float.nan });
      ("huge duration", { base with Fleet.Spec.duration = 1e9 });
      ("infinite area", { base with Fleet.Spec.area_m = Float.infinity });
      ("NaN power", { base with Fleet.Spec.power_dbm = Float.nan });
      ( "-inf frequency",
        { base with Fleet.Spec.freq_mhz = Float.neg_infinity } );
      ("NaN speed", { base with Fleet.Spec.attacker_speed_mps = Float.nan });
      ("infinite range", { base with Fleet.Spec.range_m = Float.infinity });
    ]

(* `gecko replay` loads specs from JSON: out-of-range floats there are
   rejected by the same check. *)
let test_spec_json_rejects_out_of_range () =
  let json = Fleet.Spec.to_json (Fleet.Spec.make ~devices:4 ~seed:1 ()) in
  let with_field k v =
    match json with
    | Json.Assoc kvs ->
        Json.Assoc
          (List.map (fun (k', v') -> (k', if k' = k then v else v')) kvs)
    | _ -> Alcotest.fail "spec JSON is not an object"
  in
  List.iter
    (fun (k, v) ->
      Alcotest.(check bool)
        (k ^ " out of range is rejected")
        true
        (match Fleet.Spec.of_json (with_field k v) with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [
      ("duration_s", Json.Float 1e9);
      ("area_m", Json.Float 1e300);
      ("power_dbm", Json.Float (-1e6));
      ("attacker_speed_mps", Json.Float 1e12);
    ]

(* --- heartbeat.gasm round-trip --------------------------------------- *)

(* dune runtest runs in _build/default/test; dune exec from the root. *)
let heartbeat_path =
  List.find Sys.file_exists
    [ "../examples/heartbeat.gasm"; "examples/heartbeat.gasm" ]

let test_heartbeat_roundtrip () =
  match Asm.parse_file heartbeat_path with
  | Error e -> Alcotest.fail ("parse_file failed: " ^ e)
  | Ok p -> (
      let text = Asm.to_string p in
      match Asm.parse text with
      | Error e -> Alcotest.fail ("re-parse failed: " ^ e)
      | Ok p' ->
          Alcotest.(check string)
            "printed assembly reaches a fixpoint" text (Asm.to_string p'))

(* --------------------------------------------------------------------- *)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "fleet"
    [
      ( "merge-laws",
        q
          [
            prop_acc_identity;
            prop_acc_commutative;
            prop_acc_associative;
            prop_acc_merge_is_concat;
            prop_metrics_identity;
            prop_metrics_commutative;
            prop_metrics_associative;
            prop_metrics_persist_roundtrip;
            prop_metrics_quantile_monotone;
            prop_sketch_merge_is_concat;
            prop_sketch_quantile_monotone;
          ] );
      ( "campaign",
        [
          Alcotest.test_case "jobs=1 vs jobs=4 byte-equality" `Slow
            (test_jobs_byte_equality small_spec);
          Alcotest.test_case "512-device jobs=1 vs jobs=4" `Slow
            (test_jobs_byte_equality fleet_512);
          Alcotest.test_case "telemetry jobs=1 vs jobs=4 byte-equality" `Slow
            test_telemetry_jobs_byte_equality;
          Alcotest.test_case "replay matches campaign outlier" `Slow
            test_replay_matches_campaign;
          Alcotest.test_case "resume equals uninterrupted" `Slow
            (test_resume_equals_uninterrupted ~max_shards:2
               (Fleet.Spec.make ~devices:24 ~attackers:1 ~duration:0.02
                  ~shard_size:4 ~seed:11 ()));
          Alcotest.test_case "512-device resume = uninterrupted" `Slow
            (test_resume_equals_uninterrupted ~max_shards:5 fleet_512);
          Alcotest.test_case "snapshot round-trip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "elaborate is deterministic" `Quick
            test_elaborate_deterministic;
        ] );
      ( "spec",
        [
          Alcotest.test_case "JSON round-trip" `Quick test_spec_json_roundtrip;
          Alcotest.test_case "validation rejects nonsense" `Quick
            test_spec_rejects_nonsense;
          Alcotest.test_case "JSON with out-of-range floats is rejected"
            `Quick test_spec_json_rejects_out_of_range;
        ] );
      ( "asm",
        [
          Alcotest.test_case "heartbeat.gasm round-trip" `Quick
            test_heartbeat_roundtrip;
        ] );
    ]
