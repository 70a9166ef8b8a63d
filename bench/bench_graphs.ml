(* Synthetic dependence graphs used by the table printers and the
   Bechamel micro-benchmarks. *)

(* The paper's Figure 3 example: asyncs A..F with times 500/10/10/400/600/
   500 and dependences B->D, A->F, D->F. *)
let figure3 () : Repair.Depgraph.t =
  let times = [| 500; 10; 10; 400; 600; 500 |] in
  let tree = Sdpst.Node.create_tree ~main_bid:0 in
  let root = Sdpst.Node.root in
  let steps =
    Array.mapi
      (fun i t ->
        let a =
          Sdpst.Node.new_child tree ~parent:root ~kind:Sdpst.Node.Async
            ~origin_bid:0 ~origin_idx:i ()
        in
        let s =
          Sdpst.Node.new_child tree ~parent:a ~kind:Sdpst.Node.Step
            ~origin_bid:(100 + i) ~origin_idx:0 ()
        in
        Sdpst.Node.charge tree s t ~idx:(-1);
        s)
      times
  in
  let races =
    List.map
      (fun (i, j) ->
        Espbags.Race.make ~tree ~src:steps.(i) ~sink:steps.(j)
          ~addr:(Rt.Addr.Global "dep") ~kind:Espbags.Race.Write_read)
      [ (1, 3); (0, 5); (3, 5) ]
  in
  let span, _ = Sdpst.Analysis.span_memo tree in
  Oracles.List_depgraph.build ~coalesce:false ~span tree root races

(* A larger random placement problem, for timing the O(n^3 d) DP. *)
let random_graph ~seed ~n : Repair.Depgraph.t =
  let rng = Tdrutil.Prng.create ~seed in
  let tree = Sdpst.Node.create_tree ~main_bid:0 in
  let root = Sdpst.Node.root in
  let steps =
    Array.init n (fun i ->
        let is_async = Tdrutil.Prng.int rng 3 < 2 in
        let kind = if is_async then Sdpst.Node.Async else Sdpst.Node.Step in
        let c =
          Sdpst.Node.new_child tree ~parent:root ~kind ~origin_bid:0
            ~origin_idx:i ()
        in
        if is_async then begin
          let s =
            Sdpst.Node.new_child tree ~parent:c ~kind:Sdpst.Node.Step
              ~origin_bid:(1000 + i) ~origin_idx:0 ()
          in
          Sdpst.Node.charge tree s (1 + Tdrutil.Prng.int rng 100) ~idx:(-1);
          s
        end
        else begin
          Sdpst.Node.charge tree c (1 + Tdrutil.Prng.int rng 100) ~idx:(-1);
          c
        end)
  in
  let races = ref [] in
  for _ = 1 to n do
    let i = Tdrutil.Prng.int rng (n - 1) in
    let j = i + 1 + Tdrutil.Prng.int rng (n - i - 1) in
    races :=
      Espbags.Race.make ~tree ~src:steps.(i) ~sink:steps.(j)
        ~addr:(Rt.Addr.Global "dep") ~kind:Espbags.Race.Write_read
      :: !races
  done;
  let span, _ = Sdpst.Analysis.span_memo tree in
  Oracles.List_depgraph.build ~coalesce:false ~span tree root !races
