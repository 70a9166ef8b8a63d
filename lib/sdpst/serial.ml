(** Textual rendering of an S-DPST, in the style of the paper's Figure 9:
    each node as [kind:id], indented by tree depth.  Used by the CLI's
    [--dump-sdpst] option and by structural tests. *)

open Node

let rec pp_node t ppf n =
  Fmt.pf ppf "%s%a" (String.make (2 * depth t n) ' ') (pp t) n;
  if is_step t n then
    Fmt.pf ppf " cost=%d stmts=[%d..%d]@@b%d" (cost t n) (origin_idx t n)
      (last_idx t n) (origin_bid t n)
  else if body_bid t n >= 0 then Fmt.pf ppf " body=b%d" (body_bid t n);
  (match collapsed t n with
  | Some (span, drag) -> Fmt.pf ppf " collapsed(span=%d,drag=%d)" span drag
  | None -> ());
  iter_children t (fun c -> Fmt.pf ppf "@\n%a" (pp_node t) c) n

let pp_tree ppf t = pp_node t ppf root

let to_string tree = Fmt.str "%a" pp_tree tree

(** One-line structural summary: kinds in preorder with bracketed children,
    e.g. [finish(step async(step) step)].  Convenient for exact structural
    assertions in tests. *)
let skeleton t =
  let buf = Buffer.create 256 in
  let rec go n =
    Buffer.add_string buf (kind_name (kind t n));
    if first_child t n >= 0 then begin
      Buffer.add_char buf '(';
      let first = ref true in
      iter_children t
        (fun c ->
          if not !first then Buffer.add_char buf ' ';
          first := false;
          go c)
        n;
      Buffer.add_char buf ')'
    end
  in
  go root;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parseable serialization                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string * int
(** message, 1-based line number *)

let tree_magic = "tdrace-sdpst-v1"

let kind_tag = function
  | Root -> "R"
  | Async -> "A"
  | Finish -> "F"
  | Scope Sblock -> "B"
  | Scope (Scall f) -> "C:" ^ f
  | Step -> "S"

let kind_of_tag ~line = function
  | "R" -> Root
  | "A" -> Async
  | "F" -> Finish
  | "B" -> Scope Sblock
  | "S" -> Step
  | s when String.length s > 2 && String.sub s 0 2 = "C:" ->
      Scope (Scall (String.sub s 2 (String.length s - 2)))
  | s -> raise (Parse_error ("unknown node kind tag " ^ s, line))

(** Serialize the whole tree, one node per line in preorder:
    [id parent_id kind sid origin_bid origin_idx body_bid cost last_idx].
    Collapsed summaries are written as [!span,drag] appended to the line.
    The output reconstructs an identical tree via {!tree_of_string}, so
    the paper's detector-to-analyzer hand-off can be fully offline (no
    re-execution needed to resolve a race trace). *)
let tree_to_string (t : Node.tree) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf tree_magic;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Fmt.str "nodes %d\n" t.n_nodes);
  iter_tree
    (fun n ->
      Buffer.add_string buf
        (Fmt.str "%d %d %s %d %d %d %d %d %d" n (parent t n)
           (kind_tag (kind t n)) (sid t n) (origin_bid t n) (origin_idx t n)
           (body_bid t n) (cost t n) (last_idx t n));
      (match collapsed t n with
      | Some (span, drag) -> Buffer.add_string buf (Fmt.str " !%d,%d" span drag)
      | None -> ());
      Buffer.add_char buf '\n')
    t;
  Buffer.contents buf

(** Rebuild a tree serialized by {!tree_to_string}.  Nodes keep their
    ids, which after a splice ({!Tree.insert_finish}) or a prune
    ({!Analysis.prune}) are not consecutive preorder numbers.
    @raise Parse_error on malformed input. *)
let tree_of_string (s : string) : Node.tree =
  match String.split_on_char '\n' s with
  | m :: rest when String.trim m = tree_magic -> (
      (* node id -> its last child so far (-1: none), for every node read *)
      let last : (int, int) Hashtbl.t = Hashtbl.create 1024 in
      let tree = ref None in
      List.iteri
        (fun i line ->
          let fail m = raise (Parse_error (m, i + 2)) in
          let int what v =
            match int_of_string_opt v with
            | Some n -> n
            | None -> fail (Fmt.str "malformed %s field %S" what v)
          in
          match String.split_on_char ' ' (String.trim line) with
          | [ "" ] | [ "nodes"; _ ] -> ()
          | id :: parent :: kind :: sid :: obid :: oidx :: bbid :: cost :: lidx
            :: summary -> (
              let id = int "id" id and parent = int "parent" parent in
              let kind = kind_of_tag ~line:(i + 2) kind in
              let body_bid = int "body_bid" bbid and cost = int "cost" cost in
              let collapsed =
                match List.map (String.split_on_char ',') summary with
                | [] -> None
                | [ [ a; b ] ] when String.length a > 1 && a.[0] = '!' ->
                    Some
                      ( int "span" (String.sub a 1 (String.length a - 1)),
                        int "drag" b )
                | _ -> fail "malformed collapsed summary"
              in
              let t =
                match (kind, !tree, Hashtbl.find_opt last parent) with
                | Root, None, _ when parent = -1 && id = root ->
                    let t = create_tree ~main_bid:body_bid in
                    charge t root cost ~idx:(-1);
                    tree := Some t;
                    t
                | Root, _, _ -> fail "root with a parent"
                | _, None, _ -> fail "node before root"
                | _, _, None -> fail (Fmt.str "unknown parent id %d" parent)
                | _, Some t, Some prev -> (
                    match
                      place t id ~parent ~prev ~kind ~sid:(int "sid" sid)
                        ~origin_bid:(int "origin_bid" obid)
                        ~origin_idx:(int "origin_idx" oidx) ~body_bid ~cost
                        ~last_idx:(int "last_idx" lidx)
                    with
                    | () ->
                        Hashtbl.replace last parent id;
                        t
                    | exception Invalid_argument m -> fail m)
              in
              Hashtbl.replace last id none;
              Option.iter (set_collapsed t id) collapsed)
          | _ -> fail ("unrecognized line: " ^ line))
        rest;
      match !tree with
      | Some t -> t
      | None -> raise (Parse_error ("empty tree", 2)))
  | _ -> raise (Parse_error ("bad magic; not a tdrace S-DPST dump", 1))
