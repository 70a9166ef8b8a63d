(** Abstract addresses of shared memory locations.

    Mini-HJ's type system (see {!Mhj.Typecheck}) restricts shared mutable
    state to globals and array cells, so these are the only locations the
    race detector monitors. *)

type t =
  | Global of string  (** a top-level [var] *)
  | Cell of int * int  (** (array id, index) *)

let equal a b =
  match (a, b) with
  | Global x, Global y -> String.equal x y
  | Cell (a1, i1), Cell (a2, i2) -> a1 = a2 && i1 = i2
  | _ -> false

let hash = function
  | Global x -> Hashtbl.hash (0, x)
  | Cell (a, i) -> Hashtbl.hash (1, a, i)

let pp ppf = function
  | Global x -> Fmt.string ppf x
  | Cell (a, i) -> Fmt.pf ppf "arr%d[%d]" a i

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(** Dense integer interning of addresses.

    The detection hot path must not hash a boxed {!t} per monitored
    access, so the interpreter resolves every address to a dense [int] at
    program load / allocation time:

    - the program's globals get ids [0 .. n_globals), in declaration
      order, interned once before execution starts;
    - each array allocation reserves a contiguous block of ids, one per
      cell, so a cell access is a single add ([base + index]).

    The id space is contiguous, so shadow memory becomes a flat growable
    table indexed by id instead of an [Addr.Table].  Reconstructing the
    boxed {!t} from an id ({!Intern.of_id}) is only needed when a race is
    actually reported, which is rare; cells resolve by binary search over
    the (monotone) per-array bases. *)
module Intern = struct
  type addr = t

  type t = {
    names : string Tdrutil.Vec.t;  (** global id -> name *)
    mutable n_globals : int;
    mutable next : int;  (** next free id *)
    bases : Tdrutil.Ivec.t;
        (** array aid -> base id of its cell block; monotone in [aid]
            because arrays register in allocation order; slot 0 unused *)
  }

  let create () =
    {
      names = Tdrutil.Vec.create ();
      n_globals = 0;
      next = 0;
      bases = Tdrutil.Ivec.of_list [ -1 ];
    }

  (** Intern a global (call once per name, in declaration order, before
      any array registration). *)
  let add_global t name =
    let id = t.next in
    Tdrutil.Vec.push t.names name;
    t.n_globals <- t.n_globals + 1;
    t.next <- t.next + 1;
    id

  (** Reserve [len] contiguous ids for the cells of array [aid].  Arrays
      must register in allocation order (dense, increasing [aid]). *)
  let register_array t ~aid ~len =
    if aid <> Tdrutil.Ivec.length t.bases then
      invalid_arg
        (Fmt.str "Addr.Intern.register_array: aid %d out of order" aid);
    Tdrutil.Ivec.push t.bases t.next;
    t.next <- t.next + len

  (** Interned id of cell [idx] of array [aid] (must be registered). *)
  let cell_id t ~aid ~idx = Tdrutil.Ivec.get t.bases aid + idx

  (** Size of the id space so far — an exclusive upper bound on every id
      handed out, for sizing flat shadow tables. *)
  let n_ids t = t.next

  let n_globals t = t.n_globals

  (** Reconstruct the boxed address of an interned id.  O(1) for globals,
      O(log n_arrays) for cells. *)
  let of_id t id =
    if id < 0 || id >= t.next then invalid_arg "Addr.Intern.of_id";
    if id < t.n_globals then Global (Tdrutil.Vec.get t.names id)
    else begin
      (* rightmost aid whose base is <= id: zero-length arrays share their
         successor's base and own no ids, so rightmost is the owner *)
      let lo = ref 1 and hi = ref (Tdrutil.Ivec.length t.bases - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if Tdrutil.Ivec.get t.bases mid <= id then lo := mid else hi := mid - 1
      done;
      let aid = !lo in
      Cell (aid, id - Tdrutil.Ivec.get t.bases aid)
    end
end
