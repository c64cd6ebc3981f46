module Json = Gecko_obs.Json
module Metrics = Gecko_obs.Metrics
module Rng = Gecko_util.Rng
module M = Gecko_machine.Machine
module Workbench = Gecko_harness.Workbench

type device = Shard.device = {
  id : int;
  workload : string;
  scheme : Gecko_core.Scheme.t;
  board : Spec.board_kind;
  x : float;
  y : float;
  seed : int;
}

(* One RNG stream per device, split from the campaign seed before anything
   else consumes the master stream; the field draws its trajectories from
   a further split.  Device attributes depend only on (campaign seed,
   device id), never on shard shape or execution order. *)
let elaborate (spec : Spec.t) =
  let master = Rng.create spec.Spec.seed in
  let streams = Array.init spec.Spec.devices (fun _ -> Rng.split master) in
  let field =
    Field.make ~attackers:spec.Spec.attackers ~area_m:spec.Spec.area_m
      ~speed:spec.Spec.attacker_speed_mps ~duration:spec.Spec.duration
      ~steps:spec.Spec.field_steps ~freq_mhz:spec.Spec.freq_mhz
      ~power_dbm:spec.Spec.power_dbm ~range_m:spec.Spec.range_m
      (Rng.split master)
  in
  let workloads = Array.of_list spec.Spec.workload_mix in
  let schemes = Array.of_list spec.Spec.scheme_mix in
  let boards = Array.of_list spec.Spec.board_mix in
  let devices =
    Array.mapi
      (fun id rng ->
        let x = Rng.float rng spec.Spec.area_m in
        let y = Rng.float rng spec.Spec.area_m in
        {
          id;
          workload = Rng.choose rng workloads;
          scheme = Rng.choose rng schemes;
          board = Rng.choose rng boards;
          x;
          y;
          seed = Rng.int rng 0x3FFFFFFF;
        })
      streams
  in
  (devices, field)

(* --- shards ----------------------------------------------------------- *)

type shard_result = Shard.t = {
  sr_id : int;
  sr_agg : Agg.t;
  sr_per_scheme : (string * Agg.t) list;
  sr_per_workload : (string * Agg.t) list;
  sr_metrics : Json.t;  (* Metrics.to_persist of the shard registry *)
  sr_telemetry : Telemetry.t option;  (* when the campaign ran with telemetry *)
}

let merge_groups groups =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (k, a) -> Shard.group_add tbl k a) groups;
  Shard.sorted_groups tbl

let shard_plan (spec : Spec.t) field (devices : device array) sid =
  let lo = sid * spec.Spec.shard_size in
  let hi = min (lo + spec.Spec.shard_size) spec.Spec.devices in
  Shard.plan field (Array.sub devices lo (hi - lo))

(* Each shard runs its plan in id order and streams the devices into the
   shard accumulator the moment they finish — no per-device list
   survives.  The shard result is a pure value; reduction happens later,
   in shard order, whatever the pool width. *)
let run_shard ?telemetry ~spec ~shared sid plan =
  let acc = Shard.acc_create ?telemetry sid in
  Shard.iter_devices ?telemetry ~spec ~shared plan ~f:(Shard.acc_add acc);
  Shard.acc_finish acc

let shard_to_json = Shard.to_json
let shard_of_json = Shard.of_json

(* --- snapshots (gecko.fleet/1) ---------------------------------------- *)

let snapshot_schema = "gecko.fleet/1"

let snapshot_json (spec : Spec.t) completed =
  Json.Assoc
    [
      ("schema", Json.String snapshot_schema);
      ("spec", Spec.to_json spec);
      ("total_shards", Json.Int (Spec.shards spec));
      ("shards", Json.List (List.map shard_to_json completed));
    ]

(* Write-then-rename, so a campaign killed mid-write leaves the previous
   snapshot intact — the fleet simulator checkpoints like its subject. *)
let write_snapshot path json =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Json.to_channel oc json;
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp path

let parse_snapshot contents =
  let bad msg = invalid_arg ("Fleet.Campaign.parse_snapshot: " ^ msg) in
  match Json.parse contents with
  | Error e -> bad ("malformed JSON: " ^ e)
  | Ok j ->
      (match Json.member "schema" j with
      | Some (Json.String s) when s = snapshot_schema -> ()
      | Some (Json.String s) ->
          bad (Printf.sprintf "schema %S, expected %S" s snapshot_schema)
      | _ -> bad "missing schema");
      let spec =
        match Json.member "spec" j with
        | Some sj -> Spec.of_json sj
        | None -> bad "missing spec"
      in
      let shards =
        match Json.member "shards" j with
        | Some (Json.List xs) -> List.map shard_of_json xs
        | _ -> bad "missing shards"
      in
      let total = Spec.shards spec in
      let seen = Hashtbl.create 16 in
      List.iter
        (fun sr ->
          if sr.sr_id < 0 || sr.sr_id >= total then
            bad (Printf.sprintf "shard id %d out of range" sr.sr_id);
          if Hashtbl.mem seen sr.sr_id then
            bad (Printf.sprintf "duplicate shard %d" sr.sr_id);
          Hashtbl.replace seen sr.sr_id ())
        shards;
      (spec, shards)

let load_snapshot path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  parse_snapshot contents

(* --- the campaign ----------------------------------------------------- *)

type result = {
  report : Report.t option;  (* None when stopped before the last shard *)
  completed_shards : int;
  total_shards : int;
  resumed_shards : int;
  devices_run : int;
  instructions_run : int;
  simulated_runs : int;
  telemetry : Telemetry.t option;  (* merged in shard-id order *)
}

let report_of_shards (spec : Spec.t) completed =
  let sorted = List.sort (fun a b -> compare a.sr_id b.sr_id) completed in
  let reg = Metrics.create () in
  List.iter (fun sr -> Metrics.merge_into reg (Metrics.of_persist sr.sr_metrics))
    sorted;
  {
    Report.spec;
    total = List.fold_left (fun acc sr -> Agg.merge acc sr.sr_agg) Agg.empty sorted;
    per_scheme = merge_groups (List.concat_map (fun sr -> sr.sr_per_scheme) sorted);
    per_workload =
      merge_groups (List.concat_map (fun sr -> sr.sr_per_workload) sorted);
    metrics_persist = Metrics.to_persist reg;
  }

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: xs -> x :: take (n - 1) xs

let rec drop n = function
  | xs when n <= 0 -> xs
  | [] -> []
  | _ :: xs -> drop (n - 1) xs

(* Merged telemetry of a shard set, in shard-id order (the one true
   reduction, like {!report_of_shards}).  [None] when no shard carries
   telemetry. *)
let telemetry_of_shards completed =
  let sorted = List.sort (fun a b -> compare a.sr_id b.sr_id) completed in
  List.fold_left
    (fun acc sr ->
      match (acc, sr.sr_telemetry) with
      | None, t -> t
      | Some a, Some t -> Some (Telemetry.merge a t)
      | Some _, None -> acc)
    None sorted

(* The gecko.fleet-telemetry/1 JSONL stream: a header record, one record
   per completed shard (in completion order — which is shard-id order
   within the resumed prefix and within the freshly-run suffix, so the
   stream is byte-identical at any pool width), a [final] record with
   the shard-id-order merge, and last a clearly-marked
   [nondeterministic] record carrying the only wall-clock-derived
   fields.  `cmp` streams from different runs after stripping that one
   line. *)
let stream_header (spec : Spec.t) total (c : Telemetry.config) =
  Json.Assoc
    [
      ("schema", Json.String Telemetry.stream_schema);
      ("spec", Spec.to_json spec);
      ("total_shards", Json.Int total);
      ("total_devices", Json.Int spec.Spec.devices);
      ("config", Telemetry.config_to_json c);
    ]

let stream_shard_line sr ~resumed ~cumulative =
  Json.Assoc
    [
      ("shard", Json.Int sr.sr_id);
      ("resumed", Json.Bool resumed);
      ("devices", Json.Int sr.sr_agg.Agg.devices);
      ( "telemetry",
        match sr.sr_telemetry with
        | Some t -> Telemetry.to_json t
        | None -> Json.Null );
      ("cumulative", Telemetry.to_json cumulative);
    ]

let run ?snapshot_path ?resume ?max_shards ?telemetry (spec : Spec.t) =
  ignore (Spec.validate spec);
  (match max_shards with
  | Some n when n < 1 ->
      invalid_arg "Fleet.Campaign.run: max_shards must be >= 1"
  | Some _ | None -> ());
  let resumed =
    match resume with
    | None -> []
    | Some (rspec, shards) ->
        if not (Spec.equal rspec spec) then
          invalid_arg
            "Fleet.Campaign.run: snapshot spec differs from the requested \
             campaign";
        shards
  in
  let devices, field = elaborate spec in
  let total = Spec.shards spec in
  let done_ids = Hashtbl.create 64 in
  List.iter (fun sr -> Hashtbl.replace done_ids sr.sr_id ()) resumed;
  let pending =
    List.filter
      (fun sid -> not (Hashtbl.mem done_ids sid))
      (List.init total Fun.id)
  in
  let pending =
    match max_shards with Some n -> take n pending | None -> pending
  in
  (* Every pending device's schedule, once; the unattacked devices of
     each key then share one run, simulated before the shards. *)
  let plans =
    List.map (fun sid -> (sid, shard_plan spec field devices sid)) pending
  in
  let shared = Shard.share ?telemetry ~spec (List.map snd plans) in
  let simulated_runs =
    List.fold_left
      (fun n (_, plan) -> n + Shard.own_runs shared plan)
      (Shard.shared_runs shared) plans
  in
  let borrowed =
    List.fold_left
      (fun n (_, plan) -> n + Shard.borrowed_instructions shared plan)
      0 plans
  in
  let completed = ref resumed in
  let snapshot () =
    match snapshot_path with
    | None -> ()
    | Some path ->
        let sorted =
          List.sort (fun a b -> compare a.sr_id b.sr_id) !completed
        in
        write_snapshot path (snapshot_json spec sorted)
  in
  (* Telemetry stream + live progress. *)
  let stream_oc =
    match telemetry with
    | Some { Telemetry.tel_path = Some path; _ } -> Some (open_out path)
    | Some _ | None -> None
  in
  let emit_json j =
    match stream_oc with
    | None -> ()
    | Some oc ->
        Json.to_channel oc j;
        output_char oc '\n';
        flush oc
  in
  let tel_cum =
    ref
      (Option.map
         (fun (c : Telemetry.config) ->
           Telemetry.empty ~top_k:c.Telemetry.tel_top_k)
         telemetry)
  in
  let devices_done = ref 0 in
  let emit_shard ~resumed:was_resumed sr =
    devices_done := !devices_done + sr.sr_agg.Agg.devices;
    match !tel_cum with
    | None -> ()
    | Some cum ->
        let cum =
          match sr.sr_telemetry with
          | Some t -> Telemetry.merge cum t
          | None -> cum
        in
        tel_cum := Some cum;
        emit_json (stream_shard_line sr ~resumed:was_resumed ~cumulative:cum)
  in
  let t_start = Gecko_util.Clock.now () in
  let progress_on =
    match telemetry with
    | Some c -> c.Telemetry.tel_progress
    | None -> false
  in
  let progress () =
    if progress_on then begin
      let wall = Gecko_util.Clock.elapsed t_start in
      let resumed_devices =
        List.fold_left (fun n sr -> n + sr.sr_agg.Agg.devices) 0 resumed
      in
      let fresh = !devices_done - resumed_devices in
      let rate = float_of_int fresh /. Float.max wall 1e-9 in
      let remaining = spec.Spec.devices - !devices_done in
      let eta =
        if fresh = 0 || remaining = 0 then ""
        else Printf.sprintf " | ETA %.0fs" (float_of_int remaining /. rate)
      in
      let anomalies =
        match !tel_cum with Some t -> t.Telemetry.anomalies | None -> 0
      in
      Printf.eprintf
        "\rfleet: %d/%d shards | %d/%d devices | %d anomalies | %.1f \
         devices/s%s   %!"
        (List.length !completed) total !devices_done spec.Spec.devices
        anomalies rate eta
    end
  in
  (match telemetry with
  | None -> ()
  | Some c ->
    emit_json (stream_header spec total c);
    (* Resumed shards replay into the stream first, in shard-id order. *)
    List.iter
      (fun sr -> emit_shard ~resumed:true sr)
      (List.sort (fun a b -> compare a.sr_id b.sr_id) resumed);
    progress ());
  let wave = max 1 (Workbench.jobs ()) in
  let rec waves todo =
    match take wave todo with
    | [] -> ()
    | chunk ->
        let results =
          Workbench.pmap
            (fun (sid, plan) -> run_shard ?telemetry ~spec ~shared sid plan)
            chunk
        in
        completed := !completed @ results;
        List.iter (emit_shard ~resumed:false) results;
        snapshot ();
        progress ();
        waves (drop wave todo)
  in
  waves plans;
  if progress_on then prerr_newline ();
  let new_shards =
    (* The freshly-run results are the suffix of [completed]. *)
    drop (List.length resumed) !completed
  in
  let devices_run =
    List.fold_left (fun n sr -> n + sr.sr_agg.Agg.devices) 0 new_shards
  in
  (* Each shared run's instructions count once, however many devices
     take it: the figure is what the interpreter retired. *)
  let instructions_run =
    List.fold_left
      (fun n sr -> n + sr.sr_agg.Agg.instructions)
      (Shard.shared_instructions shared - borrowed)
      new_shards
  in
  let all_done = List.length !completed = total in
  let final_telemetry = telemetry_of_shards !completed in
  (match (stream_oc, final_telemetry) with
  | Some _, Some t -> emit_json (Json.Assoc [ ("final", Telemetry.to_json t) ])
  | _ -> ());
  (* The only wall-clock-derived record, marked so deterministic
     consumers can strip it. *)
  (match stream_oc with
  | None -> ()
  | Some oc ->
      let wall = Gecko_util.Clock.elapsed t_start in
      emit_json
        (Json.Assoc
           [
             ( "nondeterministic",
               Json.Assoc
                 [
                   ("wall_seconds", Json.Float wall);
                   ( "devices_per_sec",
                     Json.Float (float_of_int devices_run /. Float.max wall 1e-9)
                   );
                   ("jobs", Json.Int (Workbench.jobs ()));
                 ] );
           ]);
      close_out oc);
  {
    report = (if all_done then Some (report_of_shards spec !completed) else None);
    completed_shards = List.length !completed;
    total_shards = total;
    resumed_shards = List.length resumed;
    devices_run;
    instructions_run;
    simulated_runs;
    telemetry = final_telemetry;
  }

(* --- drill-down replay ------------------------------------------------- *)

type replay = {
  rp_device : device;
  rp_schedule : Gecko_emi.Schedule.t;
  rp_outcome : M.outcome;
  rp_agg : Agg.t;
  rp_telemetry : Telemetry.t;
  rp_flight : Gecko_obs.Flight.t;
  rp_trace : Gecko_obs.Trace.t;
  rp_metrics : Gecko_obs.Metrics.registry;
}

(* Replay re-runs the device through [Shard.run_device_full] with the
   forensics kit attached; the observers are pure, so the outcome is the
   campaign's. *)
let replay ?(config = Telemetry.default_config) ~device_id (spec : Spec.t) =
  ignore (Spec.validate spec);
  if device_id < 0 || device_id >= spec.Spec.devices then
    invalid_arg
      (Printf.sprintf "Fleet.Campaign.replay: device %d out of range [0, %d)"
         device_id spec.Spec.devices);
  let devices, field = elaborate spec in
  let d = devices.(device_id) in
  let flight =
    Gecko_obs.Flight.create ~capacity:config.Telemetry.tel_flight_capacity ()
  in
  let trace = Gecko_obs.Trace.create () in
  let o, agg, reg, latencies =
    Shard.run_device_full ~trace ~flight ~spec ~field d
  in
  let tel =
    Shard.device_telemetry
      { config with Telemetry.tel_top_k = max 1 config.Telemetry.tel_top_k }
      d ~latencies
      ~flight:(Some (Gecko_obs.Flight.to_json flight))
      agg
  in
  {
    rp_device = d;
    rp_schedule = Field.schedule_at field ~x:d.x ~y:d.y;
    rp_outcome = o;
    rp_agg = agg;
    rp_telemetry = tel;
    rp_flight = flight;
    rp_trace = trace;
    rp_metrics = reg;
  }

(* The last hop of the forensic workflow: anomaly -> replay -> shrink.
   The repro carries the device's *compiled* program (the shrinker
   re-links candidates without re-running the pipeline) and its local
   attack schedule; no forced fires — the schedule alone is what the
   device experienced. *)
let shrink_repro (rp : replay) =
  let d = rp.rp_device in
  let p, _meta =
    Gecko_core.Pipeline.compile d.scheme (Workbench.workload_program d.workload)
  in
  {
    Gecko_faultinject.Shrink.r_prog = p;
    r_schedule = rp.rp_schedule;
    r_fires = [];
  }
