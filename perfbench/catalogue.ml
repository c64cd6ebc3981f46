(* Every workload and metric the benchmark prints.  BENCHMARK.json at the
   repository root must list exactly these names, units and directions
   (the test suite checks it); the prediction of each per-layer metric
   lives here because BENCHMARK.json has no field for it. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  note : string;
      (** End-to-end: what the figure means.  Per-layer: which end-to-end
          metric it should move, on which workload. *)
}

let m name unit_ better note = { name; unit_; better; note }

let workloads =
  [
    ( "steady",
      "11 programs x {NVP, Ratchet, GECKO sound, GECKO speculative} on \
       continuous supply: block dispatch in Machine.run does nearly all the \
       work" );
    ( "siege",
      "a fleet campaign with two mobile attackers and telemetry armed at \
       nproc jobs: monitor, JIT checkpoint, rollback, pool and observability" );
  ]

let end_to_end =
  [
    m "setup_s" "s" Lower
      "time of one cold set-up (program builds, compiles, links and decodes \
       the workload needs), median over set-ups interleaved with the \
       repetitions, after a warm-up set-up";
    m "wall_s" "s" Lower "median host wall time of one timed repetition";
    m "sim_instr_per_sec" "instr/s" Higher
      "simulated instructions retired per host second of a repetition";
    m "devices_per_sec" "devices/s" Higher
      "simulated device runs completed per host second of a repetition \
       (siege: fleet devices at nproc jobs; steady: one per configuration)";
    m "peak_rss_mb" "MiB" Lower "process high-water resident memory";
  ]

let compile_passes =
  [ "copy"; "regions"; "split"; "regions2"; "coloring"; "emit"; "guards"; "verify" ]

let steady_configs = [ "nvp"; "ratchet"; "gecko"; "gecko_speculative" ]

let machine_counts =
  [
    "instructions";
    "boundary_commits";
    "ckpt_stores";
    "guarded_stores";
    "rollbacks";
    "jit_checkpoints";
    "reboots";
    "detections";
    "misspeculations";
  ]

let fleet_steps =
  [
    "elaborate"; "schedule"; "image"; "simulate"; "result"; "fold"; "merge";
    "serialise";
  ]

let counts_note =
  "exact simulated count; moves only with the modelled design (overhead on \
   steady, progress on siege), never with a simulator-only change"

let per_layer =
  [
    m "trace.wall_s" "s" Lower
      "traced set-up (the warm-up and one cold set-up) plus one traced \
       repetition; the layer self times and other_s add up to it";
    m "trace.setup_s" "s" Lower "traced set-up part of trace.wall_s";
    m "trace.rep_s" "s" Lower "traced repetition part of trace.wall_s";
    m "trace.overhead_pct" "%" Lower
      "traced repetition vs the median untraced repetition of the same code";
    m "other_s" "s" Lower
      "trace.wall_s not covered by any layer span: the benchmark's own loop \
       and checks";
    m "workloads.build_s" "s" Lower "program builds; setup_s everywhere";
    m "core.pipeline_s" "s" Lower
      "Pipeline.compile time outside its profiled passes; setup_s and \
       core.compile_s";
  ]
  @ List.map
      (fun p ->
        m ("core." ^ p ^ "_s") "s" Lower
          ("self time of the " ^ p
         ^ " pass (Pipeline ?metrics profiler); setup_s and core.compile_s, \
            nothing on wall_s"))
      compile_passes
  @ [
      m "core.compile_s" "s" Lower
        "cold Pipeline.compile + Link.link of the 11 programs under NVP, \
         Ratchet, GECKO-noprune and GECKO sound and speculative, each gated \
         by Verify (steady's traced run, outside trace.wall_s); setup_s";
      m "core.minor_words_per_compile" "words" Lower
        "allocation per Pipeline.compile; setup_s and core.compile_s";
      m "core.boundaries" "count" Lower
        "static region boundaries; gecko_overhead_pct on steady";
      m "core.candidates" "count" Lower
        "checkpoint candidates before pruning; gecko_overhead_pct on steady";
      m "core.kept" "count" Lower
        "checkpoint stores kept after pruning; gecko_overhead_pct on steady";
      m "core.pruned_share" "share" Higher
        "pruned / candidates; gecko_overhead_pct on steady";
      m "core.static_ckpt_stores" "count" Lower
        "static Ckpt/CkptDyn instructions; gecko_overhead_pct on steady";
      m "core.guards" "count" Lower
        "speculation guards emitted; gecko_overhead_pct on steady";
      m "isa.link_s" "s" Lower "Link.link; setup_s and core.compile_s";
      m "machine.decode_s" "s" Lower "Decode.decode; setup_s";
      m "machine.fused_share" "share" Higher
        "mean fused superinstruction share of the decoded images; \
         sim_instr_per_sec on steady";
      m "machine.run_s" "s" Lower
        "Machine.run self time; sim_instr_per_sec on steady, devices_per_sec \
         on siege";
      m "machine.minor_words_per_instr" "words/instr" Lower
        "Gc.quick_stat around each Machine.run; sim_instr_per_sec on steady, \
         devices_per_sec on siege";
    ]
  @ List.map
      (fun c ->
        m
          ("machine.instr_per_sec." ^ c)
          "instr/s" Higher
          ("Machine.run rate of the " ^ c
         ^ " configuration; sim_instr_per_sec on steady, devices_per_sec on \
            siege"))
      steady_configs
  @ [
      m "machine.checked_instr_per_sec" "instr/s" Higher
        "steady configurations re-run with fast = false; \
         faultinject.replays_per_sec, nothing on wall_s";
      m "machine.fast_path_speedup" "ratio" Higher
        "block-path rate / checked-path rate on the same runs; \
         sim_instr_per_sec on steady";
    ]
  @ List.map (fun c -> m ("machine." ^ c) "count" Lower counts_note) machine_counts
  @ [
      m "machine.instrumentation_cycle_share" "share" Lower
        "compiler-inserted cycles / all cycles; gecko_overhead_pct on steady";
    ]
  @ List.map
      (fun s ->
        m ("fleet." ^ s ^ "_s") "s" Lower
          ("self time of the shard loop's " ^ s
         ^ " step (one-job serial replay); devices_per_sec on siege"))
      fleet_steps
  @ [
      m "fleet.device_ms_p50" "ms" Lower
        "median host time per device in the serial replay; devices_per_sec \
         on siege";
      m "fleet.device_ms_tail" "ms" Lower
        "host time per device at fleet.device_tail_pct, the highest \
         percentile with ten devices beyond it; devices_per_sec on siege \
         (the slowest device ends its wave)";
      m "fleet.device_tail_pct" "%" Higher "percentile of fleet.device_ms_tail";
      m "fleet.device_samples" "count" Higher "devices behind the percentiles";
      m "pool.devices_per_sec_j1" "devices/s" Higher
        "the siege campaign at one job; devices_per_sec on siege only";
      m "pool.scaling" "ratio" Higher
        "devices_per_sec at nproc jobs / at one job; devices_per_sec on \
         siege only";
      m "workbench.warm_s" "s" Lower
        "Workbench.decoded_workload on empty caches, siege's warm-up set-up; \
         setup_s on siege";
      m "workbench.compile_cache_misses" "count" Lower
        "Workbench compile-cache misses; setup_s";
      m "workbench.decode_cache_misses" "count" Lower
        "Workbench decode-cache misses; setup_s";
      m "obs.tax_pct" "%" Lower
        "Machine.run with metrics and flight recorder armed vs unarmed; \
         devices_per_sec on siege, nothing on steady";
      m "gc.minor_collections" "count" Lower
        "over the traced run; devices_per_sec on siege, sim_instr_per_sec on \
         steady";
      m "gc.major_collections" "count" Lower
        "over the traced run; devices_per_sec on siege, sim_instr_per_sec on \
         steady";
      m "gc.promoted_words" "words" Lower
        "over the traced run; devices_per_sec on siege, sim_instr_per_sec on \
         steady";
      m "faultinject.golden_s" "s" Lower
        "Explore.golden timed on its own (steady's traced run, outside \
         trace.wall_s); faultinject.replays_per_sec";
      m "faultinject.census_s" "s" Lower
        "Inject.census timed on its own; faultinject.replays_per_sec";
      m "faultinject.replays_s" "s" Lower
        "rest of Explore.explore; faultinject.replays_per_sec";
      m "faultinject.minor_words_per_replay" "words" Lower
        "allocation per explorer replay; faultinject.replays_per_sec";
      m "faultinject.replays_per_sec" "replays/s" Higher
        "single-failure and k=2 replays per host second of exploration, on \
         every GECKO program in both modes plus the NVP fft/qsort control";
      m "faultinject.sites" "count" Higher "injection sites in the censuses";
      m "faultinject.replays" "count" Higher "replays run";
      m "faultinject.failures" "count" Lower
        "explorer failures, NVP positive control included";
    ]

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let string_of_better = function Lower -> "lower" | Higher -> "higher"
