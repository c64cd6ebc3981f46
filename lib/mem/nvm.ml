type t = {
  data : int array;
  checked : bool;
  mutable reads : int;
  mutable writes : int;
}

(* Explicit range validation (with a helpful message) is a debug mode:
   in normal operation every address comes from the linker or from
   masked dynamic indices, and the per-access cost matters because the
   simulator touches NVM on the instruction hot path.  Unchecked mode
   still cannot corrupt memory — OCaml's own array bounds check remains
   and raises a plain [Invalid_argument] instead.  The variable is read
   at every [create], not cached: machines are created concurrently on
   every pool domain, and a lazy value forced by two domains at once
   raises [CamlinternalLazy.Undefined]. *)
let default_checked () =
  match Sys.getenv_opt "GECKO_CHECKED" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | Some _ | None -> false

let create ?checked ~words () =
  if words <= 0 then invalid_arg "Nvm.create: words must be positive";
  let checked =
    match checked with Some c -> c | None -> default_checked ()
  in
  { data = Array.make words 0; checked; reads = 0; writes = 0 }

let words t = Array.length t.data

let checked t = t.checked

let check t addr =
  if addr < 0 || addr >= Array.length t.data then
    invalid_arg (Printf.sprintf "Nvm: address %d out of range [0,%d)" addr (Array.length t.data))

let read t addr =
  if t.checked then check t addr;
  t.reads <- t.reads + 1;
  t.data.(addr)

let write t addr v =
  if t.checked then check t addr;
  t.writes <- t.writes + 1;
  t.data.(addr) <- v

let reads t = t.reads
let writes t = t.writes

let reset_stats t =
  t.reads <- 0;
  t.writes <- 0

let load_program t (img : Gecko_isa.Link.image) =
  Array.fill t.data 0 (Array.length t.data) 0;
  List.iter
    (fun (space_id, init) ->
      let base = img.Gecko_isa.Link.space_base.(space_id) in
      Array.iteri (fun i v -> t.data.(base + i) <- v) init)
    img.Gecko_isa.Link.prog.Gecko_isa.Cfg.init_data

let snapshot t = Array.copy t.data

let restore t snap =
  if Array.length snap <> Array.length t.data then
    invalid_arg "Nvm.restore: size mismatch";
  Array.blit snap 0 t.data 0 (Array.length snap)

let diff a b =
  let n = min (Array.length a) (Array.length b) in
  let out = ref [] in
  for i = n - 1 downto 0 do
    if a.(i) <> b.(i) then out := (i, a.(i), b.(i)) :: !out
  done;
  !out
