(* The fleet shard loop: every device's contribution inside a shard equals
   a run of that device on its own, and a 50k-device shard streams
   through O(1) live memory per finished device.

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
      Shard.iter_devices ~telemetry:tel_config ~spec ~field devices
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
      let shard =
        Campaign.run_shard ~telemetry:tel_config ~spec ~field ~devices 0
      in
      String.equal (shard_json shard) (shard_json (Shard.acc_finish folded)))

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
  Shard.iter_devices ~spec ~field devices ~f:(fun d r ->
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
      ( "memory",
        [
          Alcotest.test_case "50k-device shard streams in O(1) memory" `Slow
            test_streaming_memory_bound;
        ] );
    ]
