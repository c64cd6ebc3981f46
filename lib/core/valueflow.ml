open Gecko_isa
module A = Gecko_analysis

type t = { cands : Candidates.t; facts : int -> Facts.t }

let make ?facts (p : Cfg.program) (cands : Candidates.t) =
  let facts =
    match facts with
    | Some facts -> facts
    | None -> Array.get (Facts.program p cands.Candidates.graphs)
  in
  { cands; facts }

let same_value_over_edge t r ~(src : Candidates.site) ~(dst : Candidates.site)
    =
  src.Candidates.s_func = dst.Candidates.s_func
  &&
  let fi = src.Candidates.s_func in
  let f = t.facts fi in
  let g = t.cands.Candidates.graphs.(fi) in
  let op = src.Candidates.s_point in
  let sp = dst.Candidates.s_point in
  let ob = op.A.Fgraph.blk in
  (* Reach [dstb] from the successors of [from] without passing through
     [ob] — except that arriving AT [dstb] itself is always allowed, even
     when dstb = ob (re-entering the source block is exactly how a
     wrap-around edge reaches a destination at or before the source). *)
  let reach_avoiding ~from dstb =
    let seen = Facts.reachable_avoiding f ~from ~avoid:ob in
    if dstb <> ob then seen.(dstb)
    else List.exists (fun b -> b = from || seen.(b)) g.A.Fgraph.pred.(ob)
  in
  (* Is the destination strictly later in the source block?  Then the
     span is the in-block segment; otherwise it wraps the CFG. *)
  let forward_in_block =
    sp.A.Fgraph.blk = ob && sp.A.Fgraph.idx > op.A.Fgraph.idx
  in
  List.for_all
    (fun (dq : A.Fgraph.point) ->
      if forward_in_block then
        (* Only in-block definitions strictly between the points can
           execute on the segment (flow cannot leave mid-block). *)
        not
          (dq.A.Fgraph.blk = ob
          && dq.A.Fgraph.idx > op.A.Fgraph.idx
          && dq.A.Fgraph.idx < sp.A.Fgraph.idx)
      else if dq.A.Fgraph.blk = ob then
        if sp.A.Fgraph.blk = ob then
          (* Wrap-around to a destination at/before the source: defs
             after the source run before leaving the block; defs before
             the destination run on re-entry before arrival. *)
          not
            (dq.A.Fgraph.idx > op.A.Fgraph.idx
            || dq.A.Fgraph.idx < sp.A.Fgraph.idx)
        else
          (* Destination elsewhere: only defs after the source matter
             (re-entering the block re-crosses the source store). *)
          dq.A.Fgraph.idx <= op.A.Fgraph.idx
      else
        let step1 = reach_avoiding ~from:ob dq.A.Fgraph.blk in
        let step2 =
          (dq.A.Fgraph.blk = sp.A.Fgraph.blk
          && dq.A.Fgraph.idx < sp.A.Fgraph.idx)
          || reach_avoiding ~from:dq.A.Fgraph.blk sp.A.Fgraph.blk
        in
        not (step1 && step2))
    (Facts.defsites f).(Reg.to_int r)
