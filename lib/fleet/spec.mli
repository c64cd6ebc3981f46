(** Campaign specification: everything that determines a fleet simulation.

    A spec plus nothing else fixes the whole campaign — device placement,
    per-device workload/scheme/board assignment and RNG streams, attacker
    trajectories and the derived per-device EMI schedules — so two runs of
    the same spec produce byte-identical merged reports at any shard size
    and pool width, and a spec embedded in a [gecko.fleet/1] snapshot can
    be checked against the resuming invocation. *)

type board_kind =
  | Attack_rig  (** {!Gecko_machine.Board.attack_rig}: 10 µF storage. *)
  | Bench  (** {!Gecko_machine.Board.default}: 1 mF supercap bench board. *)

type t = {
  devices : int;
  attackers : int;
  seed : int;  (** Campaign seed; every stream splits from it. *)
  duration : float;  (** Simulated seconds per device. *)
  area_m : float;  (** Side of the square deployment area. *)
  shard_size : int;  (** Devices per work unit. *)
  workload_mix : string list;  (** Drawn per device from its RNG stream. *)
  scheme_mix : Gecko_core.Scheme.t list;
  board_mix : board_kind list;
  freq_mhz : float;  (** Attack tone. *)
  power_dbm : float;  (** Attacker transmit power. *)
  attacker_speed_mps : float;
      (** Patrol speed.  Deliberately time-compressed: device runs last
          fractions of a second, so a "walking" attacker is modelled as
          covering its whole patrol within the simulated window. *)
  range_m : float;  (** Coupling cutoff: farther attackers are inert. *)
  field_steps : int;
      (** Piecewise-constant samples of attacker motion per campaign
          duration (each sample becomes at most one schedule window). *)
}

val make :
  ?attackers:int ->
  ?duration:float ->
  ?area_m:float ->
  ?shard_size:int ->
  ?workload_mix:string list ->
  ?scheme_mix:Gecko_core.Scheme.t list ->
  ?board_mix:board_kind list ->
  ?freq_mhz:float ->
  ?power_dbm:float ->
  ?attacker_speed_mps:float ->
  ?range_m:float ->
  ?field_steps:int ->
  devices:int ->
  seed:int ->
  unit ->
  t
(** Validated constructor; raises [Invalid_argument] on nonsense (and on
    unknown workload names). *)

val validate : t -> t
(** Raises [Invalid_argument] if any field is out of range.  Every float
    field must be a finite number inside its range: duration
    [\[1e-6, 10\]] s, area [\[1, 1e4\]] m, frequency [\[1e-3, 1e5\]] MHz,
    power [\[-100, 100\]] dBm, attacker speed [\[0, 1e3\]] m/s, range
    [\[1e-3, 1e4\]] m. *)

val shards : t -> int
(** Number of shards the campaign partitions into. *)

val scheme_slug : Gecko_core.Scheme.t -> string
(** CLI/JSON name: [nvp | ratchet | gecko | gecko-noprune]. *)

val scheme_of_slug : string -> Gecko_core.Scheme.t option
val board_slug : board_kind -> string
val board_of_slug : string -> board_kind option

val to_json : t -> Gecko_obs.Json.t
val of_json : Gecko_obs.Json.t -> t
(** Raises [Invalid_argument] on malformed input.  Round-trips exactly. *)

val equal : t -> t -> bool
