(** Fixed-size domain pool for embarrassingly parallel sweeps.

    Built on the stdlib multicore primitives ([Domain], [Mutex],
    [Condition]) only — no external dependency.  The experiment harness
    uses it to fan simulator runs out across cores: every sweep point is
    an independent, deterministic closure (each run is seeded
    explicitly), so execution order cannot affect results and {!map} can
    return them in input order.

    A pool of size [n] provides [n]-way parallelism: [n - 1] worker
    domains plus the calling domain, which executes queued tasks itself
    while it waits.  Size 1 spawns no domains at all and [map] degrades
    to [List.map] — the exact serial behaviour.

    Tasks must not themselves call {!map} on the same pool (the nested
    call could deadlock waiting on workers that are all busy with the
    outer map). *)

type t

exception Invalid_jobs of string
(** [GECKO_JOBS] is set but is not an integer >= 1.  The message names
    the variable and its value. *)

val default_jobs : unit -> int
(** Pool size used when none is given: the [GECKO_JOBS] environment
    variable when set, otherwise [Domain.recommended_domain_count ()]
    (an empty value counts as unset).  Raises {!Invalid_jobs} when the
    variable holds anything but an integer >= 1. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains ([jobs] defaults
    to {!default_jobs}; values below 1 are clamped to 1). *)

val jobs : t -> int
(** The parallelism degree the pool was created with. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] applies [f] to every element of [xs], running the
    applications on the pool, and returns the results in input order.
    If any application raises, the first exception (in input order) is
    re-raised in the caller with its backtrace — after all tasks of this
    call have finished, so no work is left running in the background. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent.  [map] on a shut-down
    pool runs serially. *)
