(** Data race reports.

    A race connects two step instances of the S-DPST: the {e source} is
    the access that occurs first in the depth-first traversal, the
    {e sink} the later one (paper §4.2).  Races are rendered as the dotted
    edges of the paper's Figure 9. *)

type kind =
  | Write_read  (** earlier write, later read *)
  | Read_write  (** earlier read, later write *)
  | Write_write

let pp_kind ppf = function
  | Write_read -> Fmt.string ppf "W->R"
  | Read_write -> Fmt.string ppf "R->W"
  | Write_write -> Fmt.string ppf "W->W"

type t = {
  src : Sdpst.Node.t;  (** source step (earlier in depth-first order) *)
  sink : Sdpst.Node.t;  (** sink step (later in depth-first order) *)
  addr : Rt.Addr.t;  (** the contended location *)
  kind : kind;
  tree : Sdpst.Node.tree;  (** the S-DPST both steps belong to *)
}

let make ~tree ~src ~sink ~addr ~kind =
  assert (src < sink);
  { src; sink; addr; kind; tree }

let pp ppf r =
  Fmt.pf ppf "%a race on %a: %a -> %a" pp_kind r.kind Rt.Addr.pp r.addr
    (Sdpst.Node.pp r.tree) r.src (Sdpst.Node.pp r.tree) r.sink

type race = t

(* The tree of a list's steps: a shared empty one when there are none. *)
let no_tree = Sdpst.Node.create_tree ~main_bid:(-1)
let tree_of = function r :: _ -> r.tree | [] -> no_tree

let sid_mask = (1 lsl 31) - 1

module Pairs = struct
  (* Packed keys [(src lsl 31) lor sink] and multiplicities in parallel
     int vectors, over the steps of [tree]. *)
  type t = {
    keys : Tdrutil.Ivec.t;
    counts : Tdrutil.Ivec.t;
    tree : Sdpst.Node.tree;
  }

  let empty_like t =
    { keys = Tdrutil.Ivec.create (); counts = Tdrutil.Ivec.create ();
      tree = t.tree }

  let push t key n =
    Tdrutil.Ivec.push t.keys key;
    Tdrutil.Ivec.push t.counts n

  (* [at.(src)] is the index of the pair [(src, sink)] for the current
     sink, valid iff it is at least [run] (the first index of the current
     sink's run): with each sink's keys contiguous, that is an exact
     dedupe with no hashing. *)
  let build ~tree feed =
    let t =
      { keys = Tdrutil.Ivec.create (); counts = Tdrutil.Ivec.create (); tree }
    in
    let at = Tdrutil.Ivec.create () in
    let sink_now = ref (-1) and run = ref 0 in
    let add key =
      let src = key lsr 31 and sink = key land sid_mask in
      if sink <> !sink_now then begin
        if sink < !sink_now then
          invalid_arg "Race.Pairs: sink ids must not decrease (report order)";
        sink_now := sink;
        run := Tdrutil.Ivec.length t.keys
      end;
      if src >= sink then invalid_arg "Race.Pairs: source must precede sink";
      Tdrutil.Ivec.ensure at (src + 1) ~fill:(-1);
      let k = Tdrutil.Ivec.unsafe_get at src in
      if k >= !run then begin
        Tdrutil.Ivec.unsafe_set t.counts k
          (Tdrutil.Ivec.unsafe_get t.counts k + 1);
        false
      end
      else begin
        Tdrutil.Ivec.unsafe_set at src (Tdrutil.Ivec.length t.keys);
        push t key 1;
        true
      end
    in
    feed add;
    t

  let key_of (r : race) = (r.src lsl 31) lor r.sink

  let of_list races =
    build ~tree:(tree_of races) (fun add ->
        List.iter (fun r -> ignore (add (key_of r))) races)

  let length t = Tdrutil.Ivec.length t.keys
  let n_races t = Tdrutil.Ivec.fold ( + ) 0 t.counts
  let count t k = Tdrutil.Ivec.get t.counts k
  let src_id t k = Tdrutil.Ivec.get t.keys k lsr 31
  let sink_id t k = Tdrutil.Ivec.get t.keys k land sid_mask
  let tree t = t.tree

  module Keys = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal
    let hash key = (key lxor (key lsr 29)) * 0x2545F491 land max_int
  end)

  (* The moved pairs are few next to the step ids, so they are indexed
     by a table of their own, not by an id-sized stamp column. *)
  let map f t =
    let out = empty_like t in
    let index = Keys.create 64 in
    for k = 0 to length t - 1 do
      let key = Tdrutil.Ivec.unsafe_get t.keys k in
      let src = f (key lsr 31) and sink = f (key land sid_mask) in
      if src >= sink then
        invalid_arg "Race.Pairs.map: source must precede sink";
      let key = (src lsl 31) lor sink
      and n = Tdrutil.Ivec.unsafe_get t.counts k in
      match Keys.find index key with
      | i ->
          Tdrutil.Ivec.unsafe_set out.counts i
            (Tdrutil.Ivec.unsafe_get out.counts i + n)
      | exception Not_found ->
          Keys.add index key (length out);
          push out key n
    done;
    out

  let filter keep t =
    let out = empty_like t in
    for k = 0 to length t - 1 do
      if keep k then
        push out (Tdrutil.Ivec.unsafe_get t.keys k)
          (Tdrutil.Ivec.unsafe_get t.counts k)
    done;
    out
end

(** Distinct (source step, sink step) pairs, preserving first-seen order:
    the first record of each pair, found by {!Pairs.build}. *)
let dedupe_by_steps (races : t list) : t list =
  let kept = ref [] in
  ignore
    (Pairs.build ~tree:(tree_of races) (fun add ->
         List.iter (fun r -> if add (Pairs.key_of r) then kept := r :: !kept)
           races));
  List.rev !kept

(** Exact per-record signature: node ids are deterministic under the
    depth-first interpreter, so two detectors report the same races in
    the same order iff their signature lists are equal.  Shared by the
    differential harness, the bench byte-identity assertions, and the
    vclock backend tests. *)
let exact_sig (r : t) =
  ( r.src,
    r.sink,
    Fmt.str "%a" Rt.Addr.pp r.addr,
    Fmt.str "%a" pp_kind r.kind )

let exact_sigs races = List.map exact_sig races

let pp_sig ppf (src, sink, addr, kind) =
  Fmt.pf ppf "(%d -> %d) %s %s" src sink addr kind
