open Gecko_isa
module A = Gecko_analysis

type t = {
  g : A.Fgraph.t;
  call_defs : string -> Reg.Set.t;
  dom : A.Dom.t Lazy.t;
  block_reach : A.Blockreach.t Lazy.t;
  reaching : A.Reaching.t Lazy.t;
  def_points : A.Fgraph.point list array Lazy.t;
  avoiding : (int * int, bool array) Hashtbl.t;
      (* (from, avoid) -> blocks reachable from [from]'s successors
         without passing through [avoid] *)
}

let def_points ~call_defs (g : A.Fgraph.t) =
  let ds = Array.make Reg.count [] in
  Array.iteri
    (fun bi (b : Cfg.block) ->
      List.iteri
        (fun idx i ->
          Reg.Set.iter
            (fun r ->
              ds.(Reg.to_int r) <-
                { A.Fgraph.blk = bi; idx } :: ds.(Reg.to_int r))
            (Instr.defs i))
        b.Cfg.instrs;
      match b.Cfg.term with
      | Instr.Call (callee, _) ->
          let pos = { A.Fgraph.blk = bi; idx = List.length b.Cfg.instrs } in
          Reg.Set.iter
            (fun r -> ds.(Reg.to_int r) <- pos :: ds.(Reg.to_int r))
            (call_defs callee)
      | Instr.Jmp _ | Instr.Br _ | Instr.Ret | Instr.Halt -> ())
    g.A.Fgraph.blocks;
  ds

let make ~call_defs g =
  {
    g;
    call_defs;
    dom = lazy (A.Dom.compute g);
    block_reach = lazy (A.Blockreach.compute g);
    reaching = lazy (A.Reaching.compute ~call_defs g);
    def_points = lazy (def_points ~call_defs g);
    avoiding = Hashtbl.create 16;
  }

let after_boundary t =
  { t with def_points = lazy (def_points ~call_defs:t.call_defs t.g) }

let program (p : Cfg.program) graphs =
  let call_defs = A.Clobbers.of_function (A.Clobbers.compute p) in
  Array.map (make ~call_defs) graphs

let graph t = t.g
let dom t = Lazy.force t.dom
let block_reach t = Lazy.force t.block_reach
let reaching t = Lazy.force t.reaching
let defsites t = Lazy.force t.def_points

let reachable_avoiding t ~from ~avoid =
  match Hashtbl.find_opt t.avoiding (from, avoid) with
  | Some seen -> seen
  | None ->
      let seen = Array.make (A.Fgraph.n_blocks t.g) false in
      let rec go b =
        if b <> avoid && not seen.(b) then begin
          seen.(b) <- true;
          List.iter go t.g.A.Fgraph.succ.(b)
        end
      in
      List.iter go t.g.A.Fgraph.succ.(from);
      Hashtbl.add t.avoiding (from, avoid) seen;
      seen
