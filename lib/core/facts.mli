(** The per-function analyses checkpoint pruning and value-flow read —
    dominators, block reachability, reaching definitions and definition
    sites — each computed on first use.

    Inserting a [Boundary] into one of the function's blocks (what a
    colouring repair does) defines and uses no register and adds no
    block or edge, so the dominators, block reachability, the
    reachable-avoiding memo and the reaching definitions (which name
    sites by ordinal, not position) all stay exact; only the definition
    sites name instruction positions ({!after_boundary}). *)

open Gecko_isa

type t

val program : Cfg.program -> Gecko_analysis.Fgraph.t array -> t array
(** The facts of each graph of the program.  A call site counts as a
    definition of the callee's clobber set
    ({!Gecko_analysis.Clobbers}). *)

val after_boundary : t -> t
(** The facts once a [Boundary] was inserted into the function:
    definition sites are recomputed, everything else is kept. *)

val graph : t -> Gecko_analysis.Fgraph.t
val dom : t -> Gecko_analysis.Dom.t
val block_reach : t -> Gecko_analysis.Blockreach.t
val reaching : t -> Gecko_analysis.Reaching.t

val defsites : t -> Gecko_analysis.Fgraph.point list array
(** Per register index, every point that may define it. *)

val reachable_avoiding : t -> from:int -> avoid:int -> bool array
(** The blocks control reaches from a successor of block [from] without
    passing through block [avoid] ([avoid] itself is never marked);
    computed once per pair and shared by every later query. *)
