(* The GECKO benchmark: two workloads, each measured end to end with
   tracing off, and a separate traced run that splits the same work into
   per-layer self times.

     gecko_bench --workload steady|siege --seed N --seconds S --trace 0|1

   Host times are wall-clock seconds on the machine running the benchmark
   (CLOCK_MONOTONIC).  Figures marked simulated come from the modelled
   design: they repeat exactly for a fixed seed and a simulator-only change
   must leave them identical.  The model is not validated against
   hardware; the only reference is the paper's figures, quoted beside the
   two simulated headline figures.

   Only entry points that survive the planned simplifications are called:
   no engine choice, no batched stepping, no Precise or Legacy pipeline
   mode. *)

module K = Bench_kit
module R = K.Recorder
module Core = Gecko_core
module M = Gecko_machine.Machine
module Board = Gecko_machine.Board
module Decode = Gecko_machine.Decode
module Link = Gecko_isa.Link
module W = Gecko_workloads.Workload
module Wb = Gecko_harness.Workbench
module Fleet = Gecko_fleet
module FI = Gecko_faultinject
module Metrics = Gecko_obs.Metrics
module Json = Gecko_obs.Json

let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9
let () = Gecko_util.Clock.set_source now

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sum = List.fold_left ( +. ) 0.
let sumi = List.fold_left ( + ) 0
let ratio a b = if b > 0. then a /. b else 0.
let minor_words () = (Gc.quick_stat ()).Gc.minor_words
let nproc = max 1 (Domain.recommended_domain_count ())

(* Set-up runs once to warm up (siege: filling the Workbench caches the
   campaign reads), then in batches of cold set-ups interleaved with the
   timed repetitions, so set-up samples see the same host as the
   repetitions.  A batch lasts at least [setup_batch_s].  setup_s is the
   median over all set-ups of the run, so work moved into set-up shows.
   Every timed set-up and repetition starts after a full major
   collection, so none pays for the garbage of the one before. *)
let setup_batch_s = 0.25

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)
(* ------------------------------------------------------------------ *)

type args = { workload : string; seed : int; seconds : float; trace : bool }

let usage =
  "usage: gecko_bench --workload steady|siege --seed N --seconds S \
   --trace 0|1"

let parse_args argv =
  let fail msg =
    prerr_endline ("gecko_bench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  let rec go acc = function
    | [] -> acc
    | [ k ] -> fail ("missing value for " ^ k)
    | k :: v :: rest -> go ((k, v) :: acc) rest
  in
  let kv = go [] (List.tl (Array.to_list argv)) in
  let get k =
    match List.assoc_opt k kv with Some v -> v | None -> fail ("missing " ^ k)
  in
  List.iter
    (fun (k, _) ->
      if not (List.mem k [ "--workload"; "--seed"; "--seconds"; "--trace" ])
      then fail ("unknown argument " ^ k))
    kv;
  let workload = get "--workload" in
  if not (List.mem_assoc workload K.Catalogue.workloads) then
    fail ("unknown workload " ^ workload);
  let seed =
    match int_of_string_opt (get "--seed") with
    | Some s when s >= 0 -> s
    | _ -> fail "--seed must be a non-negative integer"
  in
  let seconds =
    match float_of_string_opt (get "--seconds") with
    | Some s when s > 0. && s <= 600. -> s
    | _ -> fail "--seconds must be in (0, 600]"
  in
  let trace =
    match get "--trace" with
    | "0" -> false
    | "1" -> true
    | _ -> fail "--trace must be 0 or 1"
  in
  { workload; seed; seconds; trace }

(* ------------------------------------------------------------------ *)
(* Shared layer calls                                                  *)
(* ------------------------------------------------------------------ *)

type config = { slug : string; scheme : Core.Scheme.t; mode : Core.Mode.t }

let cfg slug scheme mode = { slug; scheme; mode }
let nvp = cfg "nvp" Core.Scheme.Nvp Core.Mode.Sound
let gecko = cfg "gecko" Core.Scheme.Gecko Core.Mode.Sound
let gecko_spec = cfg "gecko_speculative" Core.Scheme.Gecko Core.Mode.Speculative

let steady_configs =
  [ nvp; cfg "ratchet" Core.Scheme.Ratchet Core.Mode.Sound; gecko; gecko_spec ]

let catalogue_configs =
  [
    nvp;
    cfg "ratchet" Core.Scheme.Ratchet Core.Mode.Sound;
    cfg "gecko_noprune" Core.Scheme.Gecko_noprune Core.Mode.Sound;
    gecko;
    gecko_spec;
  ]

type compiled = {
  prog : string;
  config : config;
  code : Gecko_isa.Cfg.program;
  meta : Core.Meta.t;
  image : Link.image;
}

(* Counters only the traced run reads. *)
type probe = {
  mutable compiles : int;
  mutable compile_words : float;
  mutable run_instr : int;
  mutable run_words : float;
  by_config : (string, int * float) Hashtbl.t;  (** slug -> instr, seconds *)
}

let new_probe () =
  {
    compiles = 0;
    compile_words = 0.;
    run_instr = 0;
    run_words = 0.;
    by_config = Hashtbl.create 8;
  }

let build rc names =
  R.span rc "workloads.build" (fun () ->
      List.map (fun n -> (n, (W.find n).W.build ())) names)

(* Pipeline.compile + Link.link.  Traced, the pipeline's own ?metrics
   profiler splits the compile span into per-pass self times. *)
let compile rc probe (prog, code) config =
  let reg = Option.map (fun _ -> Metrics.create ()) probe in
  let w0 = if probe = None then 0. else minor_words () in
  let code, meta =
    R.span rc "core.pipeline" (fun () ->
        Core.Pipeline.compile ~mode:config.mode ?metrics:reg config.scheme code)
  in
  (match (probe, reg, R.last rc) with
  | Some p, Some reg, Some id ->
      p.compiles <- p.compiles + 1;
      p.compile_words <- p.compile_words +. (minor_words () -. w0);
      R.split rc id
        (List.map
           (fun pass ->
             ( "core." ^ pass,
               Metrics.hist_sum
                 (Metrics.histogram reg ("pipeline." ^ pass ^ ".seconds")) ))
           K.Catalogue.compile_passes)
  | _ -> ());
  let image =
    R.span rc "isa.link" (fun () -> Link.link ~guards:meta.Core.Meta.guards code)
  in
  { prog; config; code; meta; image }

let decode rc board (c : compiled) =
  R.span rc "machine.decode" (fun () ->
      Decode.decode ~device:board.Board.device c.image)

let machine_run rc probe slug ~board ~image ~meta opts =
  match probe with
  | None -> R.span rc "machine.run" (fun () -> M.run ~board ~image ~meta opts)
  | Some p ->
      let w0 = minor_words () in
      let t0 = now () in
      let o = R.span rc "machine.run" (fun () -> M.run ~board ~image ~meta opts) in
      let dt = now () -. t0 in
      p.run_words <- p.run_words +. (minor_words () -. w0);
      p.run_instr <- p.run_instr + o.M.instructions;
      let i, s =
        Option.value ~default:(0, 0.) (Hashtbl.find_opt p.by_config slug)
      in
      Hashtbl.replace p.by_config slug (i + o.M.instructions, s +. dt);
      o

(* Static compiler figures of one compile of every configuration. *)
let static_counts (cs : compiled list) =
  let s f = float_of_int (sumi (List.map f cs)) in
  let st (c : compiled) = c.meta.Core.Meta.stats in
  let candidates = s (fun c -> (st c).Core.Meta.candidates) in
  [
    ("core.boundaries", s (fun c -> (st c).Core.Meta.boundaries));
    ("core.candidates", candidates);
    ("core.kept", s (fun c -> (st c).Core.Meta.kept));
    ("core.pruned_share", ratio (s (fun c -> (st c).Core.Meta.pruned)) candidates);
    ( "core.static_ckpt_stores",
      s (fun c -> Core.Pipeline.checkpoint_store_count c.code) );
    ("core.guards", s (fun c -> List.length c.meta.Core.Meta.guards));
  ]

let counts_of_outcomes (os : M.outcome list) =
  let s f = float_of_int (sumi (List.map f os)) in
  let app = s (fun o -> o.M.app_cycles) in
  let instr = s (fun o -> o.M.instrumentation_cycles) in
  [
    ("machine.instructions", s (fun o -> o.M.instructions));
    ("machine.boundary_commits", s (fun o -> o.M.boundary_commits));
    ("machine.ckpt_stores", s (fun o -> o.M.ckpt_stores));
    ("machine.guarded_stores", s (fun o -> o.M.guarded_stores));
    ("machine.rollbacks", s (fun o -> o.M.rollbacks));
    ("machine.jit_checkpoints", s (fun o -> o.M.jit_checkpoints));
    ("machine.reboots", s (fun o -> o.M.reboots));
    ("machine.detections", s (fun o -> o.M.detections));
    ("machine.misspeculations", s (fun o -> o.M.misspeculations));
    ("machine.instrumentation_cycle_share", ratio instr (app +. instr));
  ]

(* The same counts from a metrics registry the machine published into. *)
let counts_of_registry reg =
  let c n = float_of_int (Metrics.counter_value (Metrics.counter reg n)) in
  let app = c "machine.app_cycles" and instr = c "machine.instrumentation_cycles" in
  List.map
    (fun n -> ("machine." ^ n, c ("machine." ^ n)))
    K.Catalogue.machine_counts
  @ [ ("machine.instrumentation_cycle_share", ratio instr (app +. instr)) ]

let peak_rss_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec find () =
          let l = input_line ic in
          match Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> kb) with
          | Some kb -> float_of_int kb /. 1024.
          | None -> find ()
        in
        find ())
  in
  try from_proc ()
  with Sys_error _ | End_of_file ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* What a workload hands the run loop: set-up, one repetition, and the
   traced run's extras.  [rep] returns the repetition's checks (attempted,
   failed), its unit counts and its simulated figures. *)
type rep_result = {
  attempted : int;
  failed : int;
  instructions : int;  (** simulated instructions retired *)
  devices : int;  (** simulated device runs completed *)
  simulated : (string * string * float) list;  (** name, unit, value *)
}

type workload = {
  setup : R.t -> probe option -> int -> unit;
      (** [setup rc probe i] runs set-up repetition [i]. *)
  prepare : unit -> unit;
      (** Untimed work between set-up and the first repetition (steady:
          the checked-path reference outcomes). *)
  rep : R.t -> probe option -> rep_result;
  traced_rep : (R.t -> probe option -> rep_result) option;
      (** A different decomposition of the repetition (siege: the
          one-job serial replay of the shard loop); default [rep]. *)
  layers : probe -> (string * float) list;
      (** Per-layer figures of the traced run other than self times. *)
  differentials : unit -> (string * float) list * int * int;
      (** Outside-in differentials run after the traced repetition, with
          the checks they make (attempted, failed). *)
}

let compile_all rc probe progs configs =
  List.concat_map (fun p -> List.map (compile rc probe p) configs) progs

let steady_opts ~seed ~sim ~fast dec =
  {
    M.default_options with
    limit = M.Sim_time sim;
    max_sim_time = sim +. 1.;
    restart_on_halt = true;
    seed;
    decoded = Some dec;
    fast;
  }

(* The checked path (fast = false) vs the block path on the steady
   configurations over a short simulated window; only the traced run pays
   for it. *)
let checked_differential ~seed =
  let board = Board.default () in
  let cs =
    compile_all R.disabled None (build R.disabled W.names) steady_configs
  in
  let decoded = List.map (fun c -> (c, decode R.disabled board c)) cs in
  let rate fast =
    let runs =
      List.map
        (fun ((c : compiled), dec) ->
          timed (fun () ->
              M.run ~board ~image:c.image ~meta:c.meta
                (steady_opts ~seed ~sim:0.01 ~fast dec)))
        decoded
    in
    ratio
      (float_of_int (sumi (List.map (fun (o, _) -> o.M.instructions) runs)))
      (sum (List.map snd runs))
  in
  let block = rate true in
  let checked = rate false in
  [
    ("machine.checked_instr_per_sec", checked);
    ("machine.fast_path_speedup", ratio block checked);
  ]

let fused_share decoded =
  ( "machine.fused_share",
    Gecko_util.Stats.mean (List.map Decode.fused_share decoded) )

(* --- the single-failure explorer ---------------------------------- *)

(* A starved board: a micro capacitor behind a weak supply browns out
   every few hundred instructions, so every protocol path (backup signal,
   JIT checkpoint ISR, restore, rollback) is part of the census. *)
let fi_board =
  {
    (Board.default
       ~harvester:(Gecko_energy.Harvester.thevenin ~v_source:3.3 ~r_source:2000.)
       ())
    with
    Board.capacitance = 0.6e-6;
    v_backup = 2.8;
  }

let explore_budget = 64
let explore_pairs = 8

(* NVP resumes from a half-written JIT snapshot on these: the positive
   control that the explorer still finds real failures. *)
let nvp_controls = [ "fft"; "qsort" ]

(* Cold compile and link of the catalogue under five configurations,
   each gated by Verify, then Explore.explore with k=2 pairs on every
   GECKO program in both modes plus the NVP positive control.  This work
   is memory-bound: on a shared host its wall time swings by 20% and more
   from run to run, too much to gate end to end, so it runs in steady's
   traced run only, where its checks count.  Returns the figures, and
   the checks made (attempted, failed). *)
let explorer_differential ~seed =
  let compiled, compile_s =
    timed (fun () ->
        List.concat_map
          (fun p ->
            List.map
              (fun c ->
                (* Pipeline.compile raises Failure when a Verify gate fails. *)
                try Some (compile R.disabled None p c) with Failure _ -> None)
              catalogue_configs)
          (build R.disabled W.names))
  in
  let ok = List.filter_map Fun.id compiled in
  let targets =
    List.filter
      (fun (c : compiled) ->
        c.config = gecko || c.config = gecko_spec
        || (c.config = nvp && List.mem c.prog nvp_controls))
      ok
  in
  let w0 = minor_words () in
  let runs, explore_s =
    timed (fun () ->
        List.map
          (fun (c : compiled) ->
            ( c,
              FI.Explore.explore ~jobs:1 ~budget:explore_budget
                ~pairs:explore_pairs ~seed ~board:fi_board ~image:c.image
                ~meta:c.meta () ))
          targets)
  in
  let words = minor_words () -. w0 in
  (* Explore.golden and Inject.census timed on their own; the rest of
     exploring is its replays. *)
  let probe f =
    sum (List.map (fun ((c : compiled), _) -> snd (timed (fun () -> f c))) runs)
  in
  let golden =
    probe (fun c ->
        FI.Explore.golden ~max_sim_time:FI.Explore.default_opts.M.max_sim_time
          ~board:fi_board ~image:c.image ~meta:c.meta ())
  in
  let census =
    probe (fun c ->
        FI.Inject.census ~board:fi_board ~image:c.image ~meta:c.meta
          FI.Explore.default_opts)
  in
  let bad ((c : compiled), (r : FI.Explore.report)) =
    if c.config = nvp then r.FI.Explore.failures = []
    else r.FI.Explore.failures <> [] || not r.FI.Explore.baseline_ok
  in
  let total f = float_of_int (sumi (List.map (fun (_, r) -> f r) runs)) in
  let replays =
    total (fun r -> r.FI.Explore.explored + r.FI.Explore.explored_pairs)
  in
  ( [
      ("core.compile_s", compile_s);
      ("faultinject.golden_s", golden);
      ("faultinject.census_s", census);
      ("faultinject.replays_s", Float.max 0. (explore_s -. golden -. census));
      ("faultinject.minor_words_per_replay", ratio words replays);
      ("faultinject.replays_per_sec", ratio replays explore_s);
      ("faultinject.sites", total (fun r -> r.FI.Explore.sites_total));
      ("faultinject.replays", replays);
      ("faultinject.failures", total (fun r -> List.length r.FI.Explore.failures));
    ],
    List.length compiled + List.length runs,
    List.length compiled - List.length ok + List.length (List.filter bad runs) )

(* --- steady ------------------------------------------------------- *)

(* Simulated seconds per configuration: long enough that every program
   completes many times, so the completion ratios behind
   gecko_overhead_pct are not quantised by a handful of runs. *)
let steady_sim_s = 0.25

let steady ~seed =
  let board = Board.default () in
  let built = ref [] in
  let opts = steady_opts ~seed ~sim:steady_sim_s in
  let setup rc probe _ =
    let cs = compile_all rc probe (build rc W.names) steady_configs in
    built := List.map (fun c -> (c, decode rc board c)) cs
  in
  (* Every timed outcome must equal the checked path's, computed once. *)
  let reference = ref [] in
  let prepare () =
    reference :=
      List.map
        (fun ((c : compiled), dec) ->
          M.run ~board ~image:c.image ~meta:c.meta (opts ~fast:false dec))
        !built
  in
  let last = ref [] in
  let rep rc probe =
    let os =
      List.map
        (fun ((c : compiled), dec) ->
          machine_run rc probe c.config.slug ~board ~image:c.image ~meta:c.meta
            (opts ~fast:true dec))
        !built
    in
    last := os;
    let completions slug =
      List.filter_map
        (fun (((c : compiled), _), (o : M.outcome)) ->
          if c.config.slug = slug then Some (c.prog, float_of_int o.M.completions)
          else None)
        (List.combine !built os)
    in
    let gecko_runs = completions "gecko" in
    let overhead =
      Gecko_util.Stats.geomean
        (List.map
           (fun (p, n) -> ratio n (List.assoc p gecko_runs))
           (completions "nvp"))
      -. 1.
    in
    {
      attempted = List.length os;
      failed = sumi (List.map2 (fun o r -> if o = r then 0 else 1) os !reference);
      instructions = sumi (List.map (fun o -> o.M.instructions) os);
      devices = List.length os;
      (* Fig. 11 analogue; the paper reports +6%. *)
      simulated = [ ("gecko_overhead_pct", "%", 100. *. overhead) ];
    }
  in
  let layers _ =
    (fused_share (List.map snd !built) :: static_counts (List.map fst !built))
    @ counts_of_outcomes !last
  in
  {
    setup;
    prepare;
    rep;
    traced_rep = None;
    layers;
    differentials =
      (fun () ->
        let figures, attempted, failed = explorer_differential ~seed in
        (checked_differential ~seed @ figures, attempted, failed));
  }

(* --- siege -------------------------------------------------------- *)

let siege_devices = 256

let telemetry = Fleet.Telemetry.default_config
let report_string r = Json.to_string (Fleet.Report.to_json r)

let siege ~seed =
  (* The default workload mix plus one pointer-heavy program. *)
  let spec =
    Fleet.Spec.make ~devices:siege_devices ~attackers:2
      ~workload_mix:[ "crc16"; "crc32"; "bitcnt"; "fir"; "qsort" ]
      ~seed ()
  in
  let n_devices = spec.Fleet.Spec.devices in
  let boards = List.map Fleet.Shard.board_of spec.Fleet.Spec.board_mix in
  let configs =
    List.filter
      (fun c ->
        Core.Mode.equal c.mode Core.Mode.Sound
        && List.mem c.scheme spec.Fleet.Spec.scheme_mix)
      catalogue_configs
  in
  let slug scheme = (List.find (fun c -> c.scheme = scheme) configs).slug in
  let built = ref [] and decoded = ref [] in
  (* Repetition 0 fills the Workbench caches the campaign reads; the
     others redo the same cold work directly, as the Workbench does. *)
  let setup rc probe i =
    if i = 0 then begin
      R.span rc "workbench.warm" (fun () ->
          List.iter
            (fun w ->
              List.iter
                (fun s ->
                  List.iter
                    (fun board -> ignore (Wb.decoded_workload s w ~board))
                    boards)
                spec.Fleet.Spec.scheme_mix)
            spec.Fleet.Spec.workload_mix)
    end
    else begin
      let cs =
        compile_all rc probe (build rc spec.Fleet.Spec.workload_mix) configs
      in
      built := cs;
      decoded := List.concat_map (fun b -> List.map (decode rc b) cs) boards
    end
  in
  (* Every merged report of the invocation must be byte-identical and
     cover exactly the spec's devices. *)
  let first = ref None and last_report = ref None in
  let check (rep : Fleet.Report.t) ~devices_run =
    let s = report_string rep in
    last_report := Some rep;
    if !first = None then first := Some s;
    if
      !first = Some s && devices_run = n_devices
      && rep.Fleet.Report.total.Fleet.Agg.devices = n_devices
    then 0
    else 1
  in
  let campaign () =
    let r = Fleet.Campaign.run ~telemetry spec in
    match r.Fleet.Campaign.report with
    | None -> (r, 1)
    | Some rep -> (r, check rep ~devices_run:r.Fleet.Campaign.devices_run)
  in
  let rep _rc _probe =
    let r, failed = campaign () in
    let progress =
      match !last_report with
      | Some rep -> (
          match List.assoc_opt "gecko" rep.Fleet.Report.per_scheme with
          | Some a -> Gecko_util.Stats.Acc.mean a.Fleet.Agg.progress
          | None -> 0.)
      | None -> 0.
    in
    {
      attempted = 1;
      failed;
      instructions = r.Fleet.Campaign.instructions_run;
      devices = r.Fleet.Campaign.devices_run;
      (* Fig. 13 analogue: mean forward progress of GECKO devices. *)
      simulated = [ ("gecko_progress", "share", progress) ];
    }
  in
  (* One campaign's shard loop replayed serially through Shard's public
     functions, so each step of a device gets its own span. *)
  let device_ms = ref [] in
  let serial rc probe =
    let devices, field =
      R.span rc "fleet.elaborate" (fun () -> Fleet.Campaign.elaborate spec)
    in
    let size = spec.Fleet.Spec.shard_size in
    let times = ref [] in
    let shards =
      List.init (Fleet.Spec.shards spec) (fun sid ->
          let acc =
            R.span rc "fleet.fold" (fun () -> Fleet.Shard.acc_create ~telemetry sid)
          in
          for id = sid * size to min ((sid + 1) * size) n_devices - 1 do
            let d = devices.(id) in
            let t0 = now () in
            let schedule =
              R.span rc "fleet.schedule" (fun () ->
                  Fleet.Field.schedule_at field ~x:d.Fleet.Shard.x
                    ~y:d.Fleet.Shard.y)
            in
            let board, image, meta, dec =
              R.span rc "fleet.image" (fun () -> Fleet.Shard.device_image d)
            in
            let reg, flight, o =
              R.span rc "fleet.simulate" (fun () ->
                  let reg = Metrics.create () in
                  let flight = Fleet.Shard.flight_recorder (Some telemetry) in
                  let opts =
                    Fleet.Shard.device_options ?flight ~spec ~schedule ~reg ~dec d
                  in
                  ( reg,
                    flight,
                    machine_run rc probe (slug d.Fleet.Shard.scheme) ~board ~image
                      ~meta opts ))
            in
            let res =
              R.span rc "fleet.result" (fun () ->
                  Fleet.Shard.device_result ~telemetry ~schedule ~reg ~flight d o)
            in
            R.span rc "fleet.fold" (fun () -> Fleet.Shard.acc_add acc d res);
            times := ((now () -. t0) *. 1e3) :: !times
          done;
          R.span rc "fleet.fold" (fun () -> Fleet.Shard.acc_finish acc))
    in
    let report =
      R.span rc "fleet.merge" (fun () ->
          Fleet.Campaign.report_of_shards spec shards)
    in
    ignore (R.span rc "fleet.serialise" (fun () -> report_string report));
    device_ms := !times;
    let total = report.Fleet.Report.total in
    {
      attempted = 1;
      failed = check report ~devices_run:total.Fleet.Agg.devices;
      instructions = total.Fleet.Agg.instructions;
      devices = total.Fleet.Agg.devices;
      simulated = [];
    }
  in
  let layers _ =
    let t = K.Pctl.tail !device_ms in
    (fused_share !decoded :: static_counts !built)
    @ (match !last_report with
      | Some rep ->
          counts_of_registry (Metrics.of_persist rep.Fleet.Report.metrics_persist)
      | None -> [])
    @ [
        ("fleet.device_ms_p50", K.Pctl.median !device_ms);
        ( "fleet.device_ms_tail",
          if Float.is_nan t.K.Pctl.value then 0. else t.K.Pctl.value );
        ("fleet.device_tail_pct", Option.value ~default:0. t.K.Pctl.pct);
        ("fleet.device_samples", float_of_int t.K.Pctl.samples);
      ]
  in
  let differentials () =
    (* Pool: the same campaign at one job and at nproc jobs. *)
    let at jobs =
      Wb.set_jobs jobs;
      let (r, failed), dt = timed campaign in
      (float_of_int r.Fleet.Campaign.devices_run /. dt, failed)
    in
    let j1, f1 = at 1 in
    let jn, fn = at nproc in
    (* Observability tax: Machine.run of the first devices with the
       fleet's observers armed (metrics registry, flight recorder) and
       bare, in alternating order. *)
    let devices, field = Fleet.Campaign.elaborate spec in
    let armed = ref 0. and bare = ref 0. in
    Array.iteri
      (fun i d ->
          let schedule =
            Fleet.Field.schedule_at field ~x:d.Fleet.Shard.x ~y:d.Fleet.Shard.y
          in
          let board, image, meta, dec = Fleet.Shard.device_image d in
          let flight = Fleet.Shard.flight_recorder (Some telemetry) in
          let with_obs =
            Fleet.Shard.device_options ?flight ~spec ~schedule
              ~reg:(Metrics.create ()) ~dec d
          in
          let without = { with_obs with M.metrics = None; flight = None } in
          let time acc o =
            acc := !acc +. snd (timed (fun () -> M.run ~board ~image ~meta o))
          in
          if i mod 2 = 0 then (time armed with_obs; time bare without)
          else (time bare without; time armed with_obs))
      (Array.sub devices 0 (min 128 n_devices));
    ( [
        ("pool.devices_per_sec_j1", j1);
        ("pool.scaling", ratio jn j1);
        ("obs.tax_pct", 100. *. (ratio !armed !bare -. 1.));
      ]
      @ checked_differential ~seed,
      2,
      f1 + fn )
  in
  {
    setup;
    (* Worker domains join every minor collection, so the pool is sized
       only after set-up. *)
    prepare = (fun () -> Wb.set_jobs nproc);
    rep;
    traced_rep = Some serial;
    layers;
    differentials;
  }

(* ------------------------------------------------------------------ *)
(* Running a workload                                                  *)
(* ------------------------------------------------------------------ *)

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* The warm-up set-up; returns how many set-ups make one batch. *)
let warm_up wl =
  let _, warm = timed (fun () -> wl.setup R.disabled None 0) in
  Float.ceil (setup_batch_s /. Float.max warm 1e-6)
  |> int_of_float |> min 50 |> max 1

let settled f =
  Gc.full_major ();
  timed f

(* One batch: the seconds of each set-up. *)
let setup_batch wl ~per ~first =
  List.init per (fun j ->
      snd (settled (fun () -> wl.setup R.disabled None (first + j))))

let emit ~metrics ~attempted ~failed values =
  say "error_rate = %.6g share (%d failed of %d attempted checks)"
    (ratio (float_of_int failed) (float_of_int attempted))
    failed attempted;
  match K.Emit.result_line ~metrics ~attempted ~failed values with
  | Ok line -> print_endline line
  | Error msg ->
      prerr_endline ("gecko_bench: " ^ msg);
      exit 1

let timed_run args wl =
  let per = warm_up wl in
  wl.prepare ();
  let t_end = now () +. args.seconds in
  let rec loop setups reps =
    let first = 1 + (per * List.length setups) in
    let setups = setup_batch wl ~per ~first :: setups in
    let reps = settled (fun () -> wl.rep R.disabled None) :: reps in
    if now () < t_end then loop setups reps else (List.rev setups, List.rev reps)
  in
  let batches, reps = loop [] [] in
  let setups = List.concat batches in
  let setup_s = K.Pctl.median setups in
  let walls = List.map snd reps in
  let rate f = K.Pctl.median (List.map (fun (r, dt) -> f r /. dt) reps) in
  let first = fst (List.hd reps) in
  (* Simulated figures repeat exactly at a fixed seed: a repetition that
     disagrees with the first is a failed check. *)
  let drift (r, _) =
    compare (r.instructions, r.devices, r.simulated)
      (first.instructions, first.devices, first.simulated)
    <> 0
  in
  let attempted = sumi (List.map (fun (r, _) -> r.attempted) reps) in
  let failed =
    sumi (List.map (fun (r, _) -> r.failed) reps)
    + List.length (List.filter drift reps)
  in
  let values =
    [
      ("setup_s", setup_s);
      ("wall_s", K.Pctl.median walls);
      ("sim_instr_per_sec", rate (fun r -> float_of_int r.instructions));
      ("devices_per_sec", rate (fun r -> float_of_int r.devices));
      ("peak_rss_mb", peak_rss_mb ());
    ]
  in
  say "%s, seed %d: %d timed repetitions (wall_s min %.4g max %.4g), %d \
       set-up batches"
    args.workload args.seed (List.length reps)
    (List.fold_left Float.min infinity walls)
    (List.fold_left Float.max 0. walls)
    (List.length batches);
  List.iter
    (fun (mt : K.Catalogue.metric) ->
      say "%s = %.6g %s" mt.name (List.assoc mt.name values) mt.unit_)
    K.Catalogue.end_to_end;
  List.iter (fun (n, u, v) -> say "%s = %.6g %s (simulated)" n v u) first.simulated;
  emit ~metrics:K.Catalogue.end_to_end ~attempted ~failed values

let write_spans args spans =
  let dir = Filename.concat "perfbench" "out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path =
    Filename.concat dir (Printf.sprintf "spans-%s-%d.json" args.workload args.seed)
  in
  let oc = open_out path in
  output_string oc (R.to_json spans);
  close_out oc;
  say "spans -> %s (%d spans)" path (List.length spans)

(* Self-time metrics that are not layers: the traced interval itself and
   its remainder. *)
let bookkeeping = [ "trace.wall_s"; "trace.setup_s"; "trace.rep_s"; "other_s" ]

(* [f ()] with the process's GC counters over the call. *)
let with_gc f =
  let a = Gc.quick_stat () in
  let r = f () in
  let b = Gc.quick_stat () in
  ( r,
    [
      ( "gc.minor_collections",
        float_of_int (b.Gc.minor_collections - a.Gc.minor_collections) );
      ( "gc.major_collections",
        float_of_int (b.Gc.major_collections - a.Gc.major_collections) );
      ("gc.promoted_words", b.Gc.promoted_words -. a.Gc.promoted_words);
    ] )

let traced_run args wl =
  let rc =
    R.create ~run:(Printf.sprintf "%s-%d" args.workload args.seed) ~clock:now ()
  in
  let probe = new_probe () in
  let rep_of = Option.value ~default:wl.rep wl.traced_rep in
  let _, compile_miss0 = Wb.cache_counts () in
  let _, decode_miss0 = Wb.decode_counts () in
  (* The traced interval is a fixed amount of set-up work (the warm-up and
     one cold set-up, so set-up layers compare across runs and commits)
     plus one repetition.  [prepare] runs between the two, outside it. *)
  let (), gc_setup =
    with_gc (fun () ->
        R.span rc "setup" (fun () ->
            ignore (wl.setup rc (Some probe) 0);
            ignore (wl.setup rc (Some probe) 1)))
  in
  wl.prepare ();
  let r, gc_rep =
    with_gc (fun () -> R.span rc "rep" (fun () -> rep_of rc (Some probe)))
  in
  let _, compile_miss1 = Wb.cache_counts () in
  let _, decode_miss1 = Wb.decode_counts () in
  (* Untraced repetitions of the same code give the tracing overhead. *)
  let untraced = List.init 2 (fun _ -> timed (fun () -> rep_of R.disabled None)) in
  let untraced_rep = K.Pctl.median (List.map snd untraced) in
  let diffs, d_att, d_fail = wl.differentials () in
  let spans = R.spans rc in
  let dur name =
    List.fold_left
      (fun a (s : R.span) ->
        if s.R.name = name then a +. (s.R.stop -. s.R.start) else a)
      0. spans
  in
  let setup_s = dur "setup" and rep_s = dur "rep" in
  let wall = setup_s +. rep_s in
  let values = Hashtbl.create 128 in
  List.iter
    (fun (mt : K.Catalogue.metric) -> Hashtbl.replace values mt.name 0.)
    K.Catalogue.per_layer;
  let set n v =
    if not (Hashtbl.mem values n) then failwith ("uncatalogued metric " ^ n);
    Hashtbl.replace values n v
  in
  let layers = ref [] in
  Hashtbl.iter
    (fun name self ->
      let n = name ^ "_s" in
      if Hashtbl.mem values n && not (List.mem n bookkeeping) then begin
        set n self;
        layers := (n, self) :: !layers
      end)
    (R.self_by_name spans);
  let layer_sum = sum (List.map snd !layers) in
  set "trace.wall_s" wall;
  set "trace.setup_s" setup_s;
  set "trace.rep_s" rep_s;
  set "trace.overhead_pct" (100. *. (ratio rep_s untraced_rep -. 1.));
  set "other_s" (wall -. layer_sum);
  set "core.minor_words_per_compile"
    (ratio probe.compile_words (float_of_int probe.compiles));
  set "machine.minor_words_per_instr"
    (ratio probe.run_words (float_of_int probe.run_instr));
  Hashtbl.iter
    (fun slug (i, s) ->
      set ("machine.instr_per_sec." ^ slug) (ratio (float_of_int i) s))
    probe.by_config;
  List.iter2 (fun (n, a) (_, b) -> set n (a +. b)) gc_setup gc_rep;
  set "workbench.compile_cache_misses"
    (float_of_int (compile_miss1 - compile_miss0));
  set "workbench.decode_cache_misses"
    (float_of_int (decode_miss1 - decode_miss0));
  List.iter (fun (n, v) -> set n v) (wl.layers probe);
  List.iter (fun (n, v) -> set n v) diffs;
  (* The self times of all spans, layers or not, must add up to the traced
     wall: a check of the decomposition itself. *)
  let self_total = sum (List.map snd (R.self_times spans)) in
  let decomposition_ok =
    Float.abs (self_total -. wall) <= 1e-9 *. Float.max 1. wall
  in
  let attempted =
    r.attempted + sumi (List.map (fun (u, _) -> u.attempted) untraced) + d_att + 1
  in
  let failed =
    r.failed
    + sumi (List.map (fun (u, _) -> u.failed) untraced)
    + d_fail
    + if decomposition_ok then 0 else 1
  in
  say "%s, seed %d, traced: wall %.6f s = set-up %.6f s + repetition %.6f s"
    args.workload args.seed wall setup_s rep_s;
  say "span self times sum to %.6f s; layers %.6f s + other_s %.6f s" self_total
    layer_sum (wall -. layer_sum);
  say "tracing overhead: traced repetition %.4f s vs untraced %.4f s (median of %d)"
    rep_s untraced_rep (List.length untraced);
  let by_self = List.sort (fun (_, a) (_, b) -> Float.compare b a) !layers in
  List.iteri
    (fun i (n, v) ->
      if i < 3 then
        say "layer #%d: %s %.6f s (%.1f%% of traced wall)" (i + 1) n v
          (100. *. ratio v wall))
    by_self;
  (* The shard loop's simulate step is a thin wrapper round Machine.run,
     which has its own span: the step's time is the sum of both. *)
  let fleet_sim = Hashtbl.find values "fleet.simulate_s" in
  if fleet_sim > 0. then begin
    let step = fleet_sim +. Hashtbl.find values "machine.run_s" in
    say
      "fleet simulate step incl. Machine.run: %.6f s (%.1f%% of traced wall, \
       %.1f%% of the traced repetition)"
      step (100. *. ratio step wall) (100. *. ratio step rep_s)
  end;
  List.iter
    (fun (mt : K.Catalogue.metric) ->
      say "  %-38s %14.6g %-11s %s" mt.name (Hashtbl.find values mt.name) mt.unit_
        mt.note)
    K.Catalogue.per_layer;
  write_spans args spans;
  emit ~metrics:K.Catalogue.per_layer ~attempted ~failed
    (List.map
       (fun (mt : K.Catalogue.metric) -> (mt.name, Hashtbl.find values mt.name))
       K.Catalogue.per_layer)

let () =
  let args = parse_args Sys.argv in
  let wl =
    match args.workload with
    | "steady" -> steady ~seed:args.seed
    | _ -> siege ~seed:args.seed
  in
  if args.trace then traced_run args wl else timed_run args wl
