(* See resolve.mli. *)

type var = Local of int | Global of int | Unbound

type t = {
  globals : (string, int) Hashtbl.t;
  mutable scopes : (string * int) list list;  (** innermost first *)
  mutable next : int;  (** next free slot *)
  mutable n_slots : int;  (** high-water mark of [next] *)
}

let create (p : Ast.program) =
  let globals = Hashtbl.create 16 in
  List.iteri (fun i (g : Ast.global) -> Hashtbl.replace globals g.gname i) p.globals;
  { globals; scopes = []; next = 0; n_slots = 0 }

let declare t x =
  let slot = t.next in
  t.next <- slot + 1;
  if t.next > t.n_slots then t.n_slots <- t.next;
  (match t.scopes with
  | s :: rest -> t.scopes <- ((x, slot) :: s) :: rest
  | [] -> t.scopes <- [ [ (x, slot) ] ]);
  slot

let scope t f =
  let saved_scopes = t.scopes and saved_next = t.next in
  t.scopes <- [] :: t.scopes;
  let r = f () in
  t.scopes <- saved_scopes;
  t.next <- saved_next;
  r

let func t params f =
  t.scopes <- [];
  t.next <- 0;
  t.n_slots <- 0;
  let r = scope t (fun () -> List.iter (fun x -> ignore (declare t x)) params; f ()) in
  (r, t.n_slots)

let lookup t x =
  let rec go = function
    | [] -> (
        match Hashtbl.find_opt t.globals x with
        | Some g -> Global g
        | None -> Unbound)
    | s :: rest -> (
        match List.assoc_opt x s with Some slot -> Local slot | None -> go rest)
  in
  go t.scopes
