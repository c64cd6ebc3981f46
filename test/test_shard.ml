(* The fleet shard loop: every device's contribution inside a shard equals
   a run of that device on its own (shared runs included), a campaign
   equals those isolated runs folded in id order, and a 50k-device shard
   streams through O(1) live memory per finished device.

   Equality is byte for byte, not approximate: campaign reports are
   folded floats and any divergence compounds. *)

module Fleet = Gecko_fleet
module Campaign = Fleet.Campaign
module Shard = Fleet.Shard
module Telemetry = Fleet.Telemetry
module Spec = Fleet.Spec
module Json = Gecko_obs.Json
module Metrics = Gecko_obs.Metrics
module Scheme = Gecko_core.Scheme
module Workbench = Gecko_harness.Workbench
module M = Gecko_machine.Machine
module B = Gecko_isa.Builder
module Reg = Gecko_isa.Reg
module Instr = Gecko_isa.Instr

(* --- random campaign specs ------------------------------------------- *)

let workload_pool = [ "crc16"; "crc32"; "bitcnt"; "fir"; "blink" ]
let scheme_pool = [ Scheme.Nvp; Scheme.Ratchet; Scheme.Gecko ]
let board_pool = [ Spec.Attack_rig; Spec.Bench ]

(* Non-empty subset of a small pool, picked by bitmask. *)
let subset_gen pool =
  QCheck.Gen.map
    (fun mask -> List.filteri (fun i _ -> mask land (1 lsl i) <> 0) pool)
    (QCheck.Gen.int_range 1 ((1 lsl List.length pool) - 1))

(* Small but adversarial: every workload/scheme/board mix, attacker
   counts from quiet to crowded (attackers sweep EMI windows over the
   field; the boards' DC supplies give the square-wave-vs-steady power
   contrast), durations long enough to cross checkpoint and reboot
   boundaries. *)
let spec_gen =
  QCheck.Gen.(
    let* devices = int_range 6 16 in
    let* attackers = int_range 0 3 in
    let* seed = int_range 0 9999 in
    let* dur_ms = int_range 4 12 in
    let* workload_mix = subset_gen workload_pool in
    let* scheme_mix = subset_gen scheme_pool in
    let* board_mix = subset_gen board_pool in
    let* power_dbm = map float_of_int (int_range 25 45) in
    return
      (Spec.make ~devices ~attackers ~seed
         ~duration:(float_of_int dur_ms /. 1000.)
         ~shard_size:devices ~workload_mix ~scheme_mix ~board_mix ~power_dbm
         ()))

let spec_arb =
  QCheck.make ~print:(fun s -> Json.to_string (Spec.to_json s)) spec_gen

let tel_config = { Telemetry.default_config with Telemetry.tel_top_k = 2 }

(* One device's observable contribution, rendered to a canonical string:
   aggregate JSON + metrics persist JSON + telemetry record JSON. *)
let result_string (agg, reg, tel) =
  String.concat "\n"
    [
      Json.to_string (Fleet.Agg.to_json agg);
      Json.to_string (Metrics.to_persist reg);
      (match tel with
      | Some t -> Json.to_string (Telemetry.to_json t)
      | None -> "-");
    ]

(* Each device run alone, last id first, so no device follows the
   neighbours it follows in the loop.  A device whose in-loop result
   depended on state left behind by an earlier run (a reused recorder,
   registry or machine buffer) would differ from its isolated run. *)
let isolated_runs spec =
  let devices, field = Campaign.elaborate spec in
  let n = Array.length devices in
  let isolated = Array.make n None in
  for i = n - 1 downto 0 do
    isolated.(i) <-
      Some (Shard.run_device ~telemetry:tel_config ~spec ~field devices.(i))
  done;
  (devices, field, Array.map Option.get isolated)

(* The loop visits devices in id order and each device's contribution
   equals its isolated run. *)
let prop_loop_per_device =
  QCheck.Test.make ~count:8 ~name:"per device = isolated runs" spec_arb
    (fun spec ->
      let devices, field, isolated = isolated_runs spec in
      let n = Array.length devices in
      let expected = Array.map result_string isolated in
      let order = ref [] and looped = Array.make n "" in
      let plan = Shard.plan field devices in
      let shared = Shard.share ~telemetry:tel_config ~spec [ plan ] in
      Shard.iter_devices ~telemetry:tel_config ~spec ~shared plan
        ~f:(fun d r ->
          order := d.Shard.id :: !order;
          looped.(d.Shard.id) <- result_string r);
      List.rev !order = List.init n Fun.id
      && Array.for_all2 String.equal looped expected)

(* A whole shard from run_shard equals the isolated runs folded into a
   shard accumulator in device-id order. *)
let prop_loop_whole_shard =
  QCheck.Test.make ~count:8 ~name:"whole shard = isolated runs" spec_arb
    (fun spec ->
      let devices, field, isolated = isolated_runs spec in
      let folded = Shard.acc_create ~telemetry:tel_config 0 in
      Array.iteri (fun i r -> Shard.acc_add folded devices.(i) r) isolated;
      let shard_json sr = Json.to_string (Campaign.shard_to_json sr) in
      let plan = Campaign.shard_plan spec field devices 0 in
      let shared = Shard.share ~telemetry:tel_config ~spec [ plan ] in
      let shard =
        Campaign.run_shard ~telemetry:tel_config ~spec ~shared 0 plan
      in
      String.equal (shard_json shard) (shard_json (Shard.acc_finish folded)))

(* --- shared runs -------------------------------------------------------- *)

(* Mixes small enough that (workload, scheme, board) keys repeat, with
   0, 1 or 2 attackers, so every spec has shared and attacked devices in
   varying proportions, over several shards. *)
let shared_spec_gen =
  QCheck.Gen.(
    let* devices = int_range 8 20 in
    let* attackers = int_range 0 2 in
    let* seed = int_range 0 9999 in
    let* shard_size = int_range 3 7 in
    let* workload_mix = subset_gen [ "crc16"; "fir"; "blink" ] in
    let* scheme_mix = subset_gen [ Scheme.Nvp; Scheme.Gecko ] in
    let* board_mix = subset_gen board_pool in
    let* power_dbm = map float_of_int (int_range 25 45) in
    return
      (Spec.make ~devices ~attackers ~seed ~duration:0.006 ~shard_size
         ~workload_mix ~scheme_mix ~board_mix ~power_dbm ()))

let shared_spec_arb =
  QCheck.make ~print:(fun s -> Json.to_string (Spec.to_json s)) shared_spec_gen

let report_json (r : Campaign.result) =
  match r.Campaign.report with
  | Some rep -> Json.to_string (Fleet.Report.to_json rep)
  | None -> "incomplete"

let telemetry_json (r : Campaign.result) =
  match r.Campaign.telemetry with
  | Some t -> Json.to_string (Telemetry.to_json t)
  | None -> "-"

(* The isolated runs folded the way a campaign folds them: devices into
   shards in id order, shards merged in shard order. *)
let folded_campaign spec devices isolated =
  let size = spec.Spec.shard_size in
  let shards =
    List.init (Spec.shards spec) (fun sid ->
        let acc = Shard.acc_create ~telemetry:tel_config sid in
        for id = sid * size to min ((sid + 1) * size) spec.Spec.devices - 1 do
          Shard.acc_add acc devices.(id) isolated.(id)
        done;
        Shard.acc_finish acc)
  in
  let telemetry =
    match List.filter_map (fun sr -> sr.Shard.sr_telemetry) shards with
    | [] -> "-"
    | t :: ts ->
        Json.to_string (Telemetry.to_json (List.fold_left Telemetry.merge t ts))
  in
  ( Json.to_string
      (Fleet.Report.to_json (Campaign.report_of_shards spec shards)),
    telemetry )

(* Machine runs a campaign over devices [lo, hi) must make, and the
   instructions they retire: one run per attacked device plus one per
   distinct key of the unattacked ones (every workload of the mixes
   above is seed-free), each run's instructions counted once. *)
let expected_work field devices isolated lo hi =
  let keys = Hashtbl.create 8 in
  let runs = ref 0 and instructions = ref 0 in
  for id = lo to hi - 1 do
    let d = devices.(id) in
    let schedule = Fleet.Field.schedule_at field ~x:d.Shard.x ~y:d.Shard.y in
    let key = (d.Shard.workload, d.Shard.scheme, d.Shard.board) in
    if Gecko_emi.Schedule.n_windows schedule > 0 || not (Hashtbl.mem keys key)
    then begin
      if Gecko_emi.Schedule.n_windows schedule = 0 then
        Hashtbl.replace keys key ();
      let agg, _, _ = isolated.(id) in
      incr runs;
      instructions := !instructions + agg.Fleet.Agg.instructions
    end
  done;
  (!runs, !instructions)

let with_jobs jobs f =
  let saved = Workbench.jobs () in
  Fun.protect ~finally:(fun () -> Workbench.set_jobs saved) (fun () ->
      Workbench.set_jobs jobs;
      f ())

(* A campaign — at 1 and 4 jobs, and interrupted then resumed — equals
   the isolated runs folded in id order, report and telemetry alike,
   simulates each distinct unattacked run once, and counts the
   instructions of each run once. *)
let prop_campaign_shared =
  QCheck.Test.make ~count:10 ~name:"campaign with shared runs = isolated runs"
    shared_spec_arb (fun spec ->
      let devices, field, isolated = isolated_runs spec in
      let expected = folded_campaign spec devices isolated in
      let run ?snapshot_path ?resume ?max_shards () =
        Campaign.run ?snapshot_path ?resume ?max_shards ~telemetry:tel_config
          spec
      in
      let same r = (report_json r, telemetry_json r) = expected in
      let work lo hi (r : Campaign.result) =
        (r.Campaign.simulated_runs, r.Campaign.instructions_run)
        = expected_work field devices isolated lo hi
      in
      let whole jobs =
        with_jobs jobs (fun () ->
            let r = run () in
            same r && work 0 spec.Spec.devices r)
      in
      let resumed () =
        let snap = Filename.temp_file "gecko_shared" ".json" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove snap with Sys_error _ -> ())
          (fun () ->
            let max_shards = max 1 (Spec.shards spec / 2) in
            let first = run ~snapshot_path:snap ~max_shards () in
            let cut =
              min spec.Spec.devices (max_shards * spec.Spec.shard_size)
            in
            let r = run ~resume:(Campaign.load_snapshot snap) () in
            work 0 cut first && work cut spec.Spec.devices r && same r)
      in
      whole 1 && whole 4 && resumed ())

(* A sensor-reading program: the spin count, and so the instructions a
   run retires, depends on each sample the device seed draws. *)
let sensor_program () =
  let b = B.program "shard_test_sensor" in
  let out = B.space b "out" ~words:1 () in
  B.func b "main";
  B.block b "entry";
  B.li b Reg.r0 0;
  B.io_in b Reg.r1 0;
  B.bin b Instr.And Reg.r1 Reg.r1 (B.imm 63);
  B.add b Reg.r1 Reg.r1 (B.imm 1);
  B.block b "spin" ~loop_bound:64;
  B.add b Reg.r0 Reg.r0 (B.imm 1);
  B.bin b Instr.Slt Reg.r3 Reg.r0 (B.reg Reg.r1);
  B.br b Instr.Nz Reg.r3 "spin" "fin";
  B.block b "fin";
  B.st b (B.at out 0) Reg.r0;
  B.halt b;
  B.finish b

(* A program with an [In] slot is never shared: its runs differ from
   seed to seed, so it is not seed-free, while every catalogued fleet
   workload is. *)
let test_in_slot_never_shared () =
  let board = Shard.board_of Spec.Attack_rig in
  let spec = Spec.make ~devices:2 ~attackers:0 ~duration:0.01 ~seed:1 () in
  let image, meta, dec =
    Workbench.decoded Scheme.Gecko (sensor_program ()) ~board
  in
  Alcotest.(check bool) "sensor program is not seed-free" false
    (Shard.seed_free dec);
  let instructions seed =
    let d =
      { Shard.id = 0; workload = "crc16"; scheme = Scheme.Gecko;
        board = Spec.Attack_rig; x = 0.; y = 0.; seed }
    in
    let o =
      M.run ~board ~image ~meta
        (Shard.device_options ~spec ~schedule:Gecko_emi.Schedule.empty
           ~reg:(Metrics.create ()) ~dec d)
    in
    o.M.instructions
  in
  Alcotest.(check bool) "two seeds, two different runs" true
    (instructions 1 <> instructions 2);
  List.iter
    (fun w ->
      List.iter
        (fun s ->
          let _, _, dec = Workbench.decoded_workload s w ~board in
          Alcotest.(check bool)
            (w ^ " is seed-free") true (Shard.seed_free dec))
        scheme_pool)
    Gecko_workloads.Workload.names

(* --- streaming-memory regression -------------------------------------- *)

(* A 50k-device shard must fold through O(1) live memory per finished
   device: the loop holds one device's machine state plus the shard
   accumulator, never a device list.  Sample the live heap every few
   thousand finished devices; the later samples must not grow with the
   device count (a reintroduced per-device list at even ~100
   words/device would add ~4M live words between the reference sample
   and the end). *)
let test_streaming_memory_bound () =
  let n = 50_000 in
  let spec =
    Spec.make ~devices:n ~attackers:1 ~duration:0.0005 ~shard_size:n ~seed:3 ()
  in
  let devices, field = Campaign.elaborate spec in
  let acc = Shard.acc_create 0 in
  let finished = ref 0 in
  let reference = ref 0 in
  let worst_growth = ref 0 in
  let sample () =
    Gc.full_major ();
    let live = (Gc.quick_stat ()).Gc.live_words in
    if !reference = 0 then reference := live
    else worst_growth := max !worst_growth (live - !reference)
  in
  let plan = Shard.plan field devices in
  let shared = Shard.share ~spec [ plan ] in
  Shard.iter_devices ~spec ~shared plan ~f:(fun d r ->
      Shard.acc_add acc d r;
      incr finished;
      if !finished mod 5_000 = 0 then sample ());
  let sr = Shard.acc_finish acc in
  Alcotest.(check int) "every device folded in" n sr.Shard.sr_agg.Fleet.Agg.devices;
  Alcotest.(check bool)
    (Printf.sprintf
       "live heap growth after the first sample stays bounded (worst %d words)"
       !worst_growth)
    true
    (!worst_growth < 2_000_000)

(* --------------------------------------------------------------------- *)

let () =
  Alcotest.run "shard"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_loop_per_device;
          QCheck_alcotest.to_alcotest prop_loop_whole_shard;
        ] );
      ( "shared runs",
        [
          QCheck_alcotest.to_alcotest prop_campaign_shared;
          Alcotest.test_case "a program with an In slot is never shared" `Quick
            test_in_slot_never_shared;
        ] );
      ( "memory",
        [
          Alcotest.test_case "50k-device shard streams in O(1) memory" `Slow
            test_streaming_memory_bound;
        ] );
    ]
