open Gecko_isa
module Iset = Set.Make (Int)

type def = Entry | Site of Fgraph.point

(* A definition site is named by its block and its ordinal among the
   block's defining instructions (a call-clobber definition comes last),
   never by its instruction index: inserting an instruction that defines
   nothing — a region boundary, a checkpoint store — leaves [t] exact,
   and points are resolved against the block's current instructions. *)
type t = {
  g : Fgraph.t;
  first_id : int array; (* block -> id of its first definition site *)
  site_blk : int array; (* id - Reg.count -> block *)
  in_sets : Iset.t array array; (* block -> reg -> ids *)
}

let def_equal a b =
  match (a, b) with
  | Entry, Entry -> true
  | Site p, Site q -> Fgraph.point_compare p q = 0
  | Entry, Site _ | Site _, Entry -> false

(* Ids 0..15 are the entry pseudo-definitions of r0..r15. *)
let entry_id r = Reg.to_int r

let all_regs = Reg.Set.of_list Reg.all

let term_defs ~call_defs (b : Cfg.block) =
  match b.Cfg.term with
  | Instr.Call (callee, _) -> call_defs callee
  | Instr.Jmp _ | Instr.Br _ | Instr.Ret | Instr.Halt -> Reg.Set.empty

let compute ?(call_defs = fun _ -> all_regs) (g : Fgraph.t) =
  let n = Fgraph.n_blocks g in
  let first_id = Array.make n 0 in
  let site_blk = ref [] in
  let next = ref Reg.count in
  (* Allocate def-site ids in block order and record per-block gen (last
     def id per reg); the terminator's call-clobber defs come last. *)
  let gen = Array.make_matrix n Reg.count None in
  let site bi ds =
    if not (Reg.Set.is_empty ds) then begin
      let id = !next in
      incr next;
      site_blk := bi :: !site_blk;
      Reg.Set.iter (fun r -> gen.(bi).(Reg.to_int r) <- Some id) ds
    end
  in
  Array.iteri
    (fun bi (b : Cfg.block) ->
      first_id.(bi) <- !next;
      List.iter (fun i -> site bi (Instr.defs i)) b.Cfg.instrs;
      site bi (term_defs ~call_defs b))
    g.Fgraph.blocks;
  let site_blk = Array.of_list (List.rev !site_blk) in
  let in_sets = Array.init n (fun _ -> Array.make Reg.count Iset.empty) in
  let out_sets = Array.init n (fun _ -> Array.make Reg.count Iset.empty) in
  if n > 0 then
    List.iter
      (fun r -> in_sets.(0).(Reg.to_int r) <- Iset.singleton (entry_id r))
      Reg.all;
  let changed = ref true in
  while !changed do
    changed := false;
    for b = 0 to n - 1 do
      for ri = 0 to Reg.count - 1 do
        let inn =
          List.fold_left
            (fun acc p -> Iset.union acc out_sets.(p).(ri))
            (if b = 0 then Iset.singleton ri else Iset.empty)
            g.Fgraph.pred.(b)
        in
        if not (Iset.equal inn in_sets.(b).(ri)) then begin
          in_sets.(b).(ri) <- inn;
          changed := true
        end;
        let out =
          match gen.(b).(ri) with Some id -> Iset.singleton id | None -> inn
        in
        if not (Iset.equal out out_sets.(b).(ri)) then begin
          out_sets.(b).(ri) <- out;
          changed := true
        end
      done
    done
  done;
  { g; first_id; site_blk; in_sets }

let ids_at t r (p : Fgraph.point) =
  let b = t.g.Fgraph.blocks.(p.Fgraph.blk) in
  (* Scan the block prefix for the latest def before the point.  A
     call-clobber def sits at the terminator position and thus never
     precedes an in-block point. *)
  let rec scan idx id last = function
    | i :: rest when idx < p.Fgraph.idx ->
        let ds = Instr.defs i in
        if Reg.Set.is_empty ds then scan (idx + 1) id last rest
        else
          let last = if Reg.Set.mem r ds then id else last in
          scan (idx + 1) (id + 1) last rest
    | _ -> last
  in
  let last = scan 0 t.first_id.(p.Fgraph.blk) (-1) b.Cfg.instrs in
  if last >= 0 then Iset.singleton last
  else t.in_sets.(p.Fgraph.blk).(Reg.to_int r)

let def_of_id t id =
  if id < Reg.count then Entry
  else
    let blk = t.site_blk.(id - Reg.count) in
    let b = t.g.Fgraph.blocks.(blk) in
    let rec find k idx = function
      | [] -> idx (* the terminator's call-clobber definition *)
      | i :: rest ->
          if Reg.Set.is_empty (Instr.defs i) then find k (idx + 1) rest
          else if k = 0 then idx
          else find (k - 1) (idx + 1) rest
    in
    Site { Fgraph.blk; idx = find (id - t.first_id.(blk)) 0 b.Cfg.instrs }

let reaching_at t r p = List.map (def_of_id t) (Iset.elements (ids_at t r p))

let unique_id t r p =
  let ids = ids_at t r p in
  if Iset.cardinal ids = 1 then Some (Iset.min_elt ids) else None

let unique_at t r p = Option.map (def_of_id t) (unique_id t r p)

(* Distinct ids are distinct definitions. *)
let same_unique_def t r pa pb =
  match (unique_id t r pa, unique_id t r pb) with
  | Some a, Some b -> a = b
  | Some _, None | None, Some _ | None, None -> false
