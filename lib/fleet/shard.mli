(** The per-shard substrate: the elaborated device record, the single
    source of machine options, the outcome-to-aggregate step, the one
    shard loop ({!iter_devices}), the shard result value, and a
    streaming accumulator that folds devices into the shard monoids the
    moment they finish.

    The invariant: devices fold into an {!acc} in ascending device-id
    order.  [Agg.merge] and the metrics histograms add floats, and float
    addition is not associative, so one canonical fold order is what
    makes shard results — and therefore merged reports and telemetry
    streams — byte-identical across pool widths. *)

type device = {
  id : int;
  workload : string;
  scheme : Gecko_core.Scheme.t;
  board : Spec.board_kind;
  x : float;
  y : float;
  seed : int;
}

val board_of : Spec.board_kind -> Gecko_machine.Board.t
(** The catalogue board for a kind; memoized (boards are immutable), so
    every device of a campaign shares the two physical records. *)

val device_image :
  device ->
  Gecko_machine.Board.t
  * Gecko_isa.Link.image
  * Gecko_core.Meta.t
  * Gecko_machine.Decode.t
(** Board + compiled image + metadata + pre-decoded stream for a device,
    every layer memoized process-wide (see
    {!Gecko_harness.Workbench.decoded_workload}). *)

val device_options :
  ?trace:Gecko_obs.Trace.t ->
  ?flight:Gecko_obs.Flight.t ->
  spec:Spec.t ->
  schedule:Gecko_emi.Schedule.t ->
  reg:Gecko_obs.Metrics.registry ->
  dec:Gecko_machine.Decode.t ->
  device ->
  Gecko_machine.Machine.options
(** The one option record every path shares — the shard loop, forensic
    replay — differing only in the pure observers, so a device's physics
    is bit-identical on every path. *)

val device_telemetry :
  Telemetry.config ->
  device ->
  latencies:float list ->
  flight:Gecko_obs.Json.t option ->
  Agg.t ->
  Telemetry.t

val device_result :
  ?telemetry:Telemetry.config ->
  schedule:Gecko_emi.Schedule.t ->
  reg:Gecko_obs.Metrics.registry ->
  flight:Gecko_obs.Flight.t option ->
  device ->
  Gecko_machine.Machine.outcome ->
  Agg.t * Gecko_obs.Metrics.registry * Telemetry.t option
(** Outcome -> the device's shard contribution (aggregate, run metrics,
    optional telemetry).  Every device run finishes through here. *)

val flight_recorder : Telemetry.config option -> Gecko_obs.Flight.t option
(** A flight recorder sized per the telemetry config, when armed. *)

val run_device_full :
  ?trace:Gecko_obs.Trace.t ->
  ?flight:Gecko_obs.Flight.t ->
  spec:Spec.t ->
  field:Field.t ->
  device ->
  Gecko_machine.Machine.outcome
  * Agg.t
  * Gecko_obs.Metrics.registry
  * float list
(** Scalar run with full observability (replay's entry point): outcome,
    aggregate, metrics registry, detection latencies. *)

val run_device :
  ?telemetry:Telemetry.config ->
  spec:Spec.t ->
  field:Field.t ->
  device ->
  Agg.t * Gecko_obs.Metrics.registry * Telemetry.t option
(** Simulate one device under its local attack schedule; returns its
    aggregate, its run-metrics registry and — when [telemetry] is given
    — its single-device telemetry (the device carries a flight recorder
    for the run; the dump rides in its outlier record if it scores as
    one). *)

val iter_devices :
  ?telemetry:Telemetry.config ->
  spec:Spec.t ->
  field:Field.t ->
  device array ->
  f:
    (device -> Agg.t * Gecko_obs.Metrics.registry * Telemetry.t option -> unit) ->
  unit
(** The shard loop: {!run_device} each device of the array in order,
    calling [f] with its contribution as soon as it finishes.  One
    device's machine state is live at a time and nothing per device is
    kept, so memory per finished device is O(1) beyond what [f]
    retains. *)

(** {2 Shard results} *)

type t = {
  sr_id : int;
  sr_agg : Agg.t;
  sr_per_scheme : (string * Agg.t) list;
  sr_per_workload : (string * Agg.t) list;
  sr_metrics : Gecko_obs.Json.t;
      (** Shard metrics registry, [Metrics.to_persist] form. *)
  sr_telemetry : Telemetry.t option;
      (** Present when the campaign ran with telemetry. *)
}

val to_json : t -> Gecko_obs.Json.t
val of_json : Gecko_obs.Json.t -> t
(** Exact round-trip; raises [Invalid_argument] on malformed input. *)

(** {2 Streaming accumulator} *)

val group_add : (string, Agg.t) Hashtbl.t -> string -> Agg.t -> unit
(** Fold an aggregate into a keyed group table (in call order). *)

val sorted_groups : (string, Agg.t) Hashtbl.t -> (string * Agg.t) list
(** The group table as an association list, keys ascending. *)

type acc
(** A shard under construction.  O(#groups + top_k) memory however many
    devices fold in. *)

val acc_create : ?telemetry:Telemetry.config -> int -> acc

val acc_add :
  acc ->
  device ->
  Agg.t * Gecko_obs.Metrics.registry * Telemetry.t option ->
  unit
(** Fold one finished device in.  Call in ascending device-id order —
    the byte-identity invariant. *)

val acc_finish : acc -> t
