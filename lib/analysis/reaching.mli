(** Reaching definitions at instruction granularity.

    Used by checkpoint pruning: a live-in register of a region is a
    pruning candidate only when a {e unique} definition reaches the region
    boundary, and the recovery-block slice requires that each source
    operand has the same unique reaching definition at the definition site
    and at the boundary (value preservation across the gap).

    A definition site is identified by its block and its ordinal among
    the block's defining instructions, and its point is read off the
    block's current instruction list at query time.  Inserting an
    instruction that defines nothing (a region boundary, say) into the
    graph's blocks therefore leaves a computed [t] exact: later queries
    see the shifted points. *)

open Gecko_isa

type def =
  | Entry  (** The register's value at function entry. *)
  | Site of Fgraph.point

type t

val compute : ?call_defs:(string -> Reg.Set.t) -> Fgraph.t -> t
(** [call_defs callee] — registers a call to [callee] may define; a call
    terminator then acts as a definition site for each of them (at the
    terminator position, so it can never be re-executed by a slice).
    Defaults to "all registers", the sound fallback. *)

val reaching_at : t -> Reg.t -> Fgraph.point -> def list
(** All definitions of the register that may reach the program point
    (the point denotes "immediately before the instruction at idx"). *)

val unique_at : t -> Reg.t -> Fgraph.point -> def option
(** [Some d] iff exactly one definition reaches. *)

val same_unique_def : t -> Reg.t -> Fgraph.point -> Fgraph.point -> bool
(** Both points see exactly one reaching definition and it is the same
    one — the register provably holds the same value at both points.
    This is the value-preservation core of checkpoint pruning and of the
    may-alias hazard analysis (address-register stability). *)

val def_equal : def -> def -> bool
