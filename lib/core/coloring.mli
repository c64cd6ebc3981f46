(** Checkpoint-slot colouring — static double buffering (Section VI-D).

    If checkpoint store [b2] of register [r] can be the {e next} store of
    [r] after store [b1] at runtime (some execution path connects them
    without an intervening store of [r]), the two must target different
    slot indices: a power failure in the middle of [b2]'s checkpoint
    sequence must leave the slots the committed recovery state references
    intact.

    The pass 2-colours, per register, the graph of emitted checkpoint
    stores under that consecutive-store adjacency (including
    cross-function edges via calls and returns).  An odd cycle (the
    paper's "join point" conflict) is repaired by inserting a fresh
    boundary immediately after a cycle node that is the source of a
    private cycle edge; the new boundary checkpoints all its live-ins
    unpruned — the paper's "additional checkpoint". *)

open Gecko_isa

type t

val color : t -> int -> Reg.t -> int
(** Colour of the checkpoint store of a register at a boundary; raises
    [Not_found] if that pair is not an emitted store. *)

val adjacency : Candidates.t -> (int * int) list
(** Immediate span-successor pairs of boundary ids (every boundary stops
    the walk). *)

val adjacency_for : Candidates.t -> stops:(int -> bool) -> (int * int) list
(** Directed consecutive pairs where only boundaries satisfying [stops]
    terminate the walk (and only they are walk sources). *)

val assign :
  ?mode:Mode.t ->
  ?metrics:Gecko_obs.Metrics.registry ->
  next_id:int ref ->
  analyze:
    (force_keep:(int -> Reg.Set.t) ->
    facts:(int -> Facts.t) ->
    Cfg.program ->
    Candidates.t ->
    Prune.result) ->
  Cfg.program ->
  Candidates.t * Prune.result * t
(** May insert repair boundaries (mutating the program).  [mode]
    (default [Sound]) picks the alias domain of the hazard verdicts
    carried in the candidates, as for {!Candidates.compute}.  [analyze]
    is re-run after every insertion, receiving the repair boundaries'
    forced-keep sets, so repair stores are first-class during pruning —
    in particular the reuse pass sees them as unprunable owned stores
    rather than discovering them after the fact — and the per-function
    facts the call keeps across its rounds (for
    {!Prune.analyze_with}[ ~facts]).  Liveness, clobber summaries and
    the per-function {!Facts} are computed once per call; a repair
    refreshes only the definition sites of the function it went into.
    Returns the final candidates, decisions and colours, and records the
    number of rounds (analyses run, the last one colourable) as the
    [pipeline.coloring.rounds] gauge of [metrics].  Raises [Failure] if
    colouring does not converge. *)
