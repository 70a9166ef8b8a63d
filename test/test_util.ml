(* Tests for the shared utility library: growable vectors and the
   deterministic PRNG. *)

let test_vec_push_get () =
  let v = Tdrutil.Vec.create () in
  Alcotest.(check bool) "fresh is empty" true (Tdrutil.Vec.is_empty v);
  for i = 0 to 99 do
    Tdrutil.Vec.push v (i * i)
  done;
  Alcotest.(check int) "length" 100 (Tdrutil.Vec.length v);
  Alcotest.(check int) "get 0" 0 (Tdrutil.Vec.get v 0);
  Alcotest.(check int) "get 99" (99 * 99) (Tdrutil.Vec.get v 99);
  Alcotest.check_raises "get out of bounds" (Invalid_argument "Vec.get")
    (fun () -> ignore (Tdrutil.Vec.get v 100))

let test_vec_set_last () =
  let v = Tdrutil.Vec.of_list [ 1; 2; 3 ] in
  Tdrutil.Vec.set v 1 42;
  Alcotest.(check (list int)) "set" [ 1; 42; 3 ] (Tdrutil.Vec.to_list v);
  Alcotest.(check (option int)) "last" (Some 3) (Tdrutil.Vec.last v);
  Alcotest.(check (option int))
    "last empty" None
    (Tdrutil.Vec.last (Tdrutil.Vec.create ()))

let test_vec_iter_fold () =
  let v = Tdrutil.Vec.of_list [ 1; 2; 3; 4 ] in
  Alcotest.(check int) "fold sum" 10 (Tdrutil.Vec.fold ( + ) 0 v);
  let seen = ref [] in
  Tdrutil.Vec.iteri (fun i x -> seen := (i, x) :: !seen) v;
  Alcotest.(check int) "iteri count" 4 (List.length !seen);
  Alcotest.(check bool) "exists" true (Tdrutil.Vec.exists (fun x -> x = 3) v);
  Alcotest.(check (option int))
    "find_index" (Some 2)
    (Tdrutil.Vec.find_index (fun x -> x = 3) v)

let vec_model =
  QCheck.Test.make ~name:"Vec.push/to_list agrees with list model" ~count:200
    QCheck.(small_list small_int)
    (fun xs ->
      let v = Tdrutil.Vec.create () in
      List.iter (Tdrutil.Vec.push v) xs;
      Tdrutil.Vec.to_list v = xs && Tdrutil.Vec.length v = List.length xs)

let test_prng_deterministic () =
  let a = Tdrutil.Prng.create ~seed:7 in
  let b = Tdrutil.Prng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Tdrutil.Prng.int a 1000)
      (Tdrutil.Prng.int b 1000)
  done

let test_prng_bounds () =
  let r = Tdrutil.Prng.create ~seed:1 in
  for _ = 1 to 1000 do
    let x = Tdrutil.Prng.int r 17 in
    if x < 0 || x >= 17 then Alcotest.fail "int out of bounds";
    let f = Tdrutil.Prng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of bounds"
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int") (fun () ->
      ignore (Tdrutil.Prng.int r 0))

let test_prng_choose () =
  let r = Tdrutil.Prng.create ~seed:3 in
  for _ = 1 to 50 do
    let x = Tdrutil.Prng.choose r [ "a"; "b"; "c" ] in
    if not (List.mem x [ "a"; "b"; "c" ]) then Alcotest.fail "choose"
  done

(* Every [choose] consumes exactly one draw regardless of list length, so
   interleaving chooses of different lengths keeps two same-seeded
   generators in lock-step.  Pins the draw-sequence invariant the O(1)
   rewrite relies on. *)
let test_prng_choose_one_draw () =
  let a = Tdrutil.Prng.create ~seed:11 in
  let b = Tdrutil.Prng.create ~seed:11 in
  List.iter
    (fun n -> ignore (Tdrutil.Prng.choose a (List.init n string_of_int)))
    [ 1; 2; 3; 7; 1; 40; 2 ];
  for _ = 1 to 7 do
    ignore (Tdrutil.Prng.int b 1_000_000)
  done;
  Alcotest.(check int) "streams aligned" (Tdrutil.Prng.int b 997)
    (Tdrutil.Prng.int a 997);
  Alcotest.check_raises "empty list"
    (Invalid_argument "Prng.choose: empty list") (fun () ->
      ignore (Tdrutil.Prng.choose a [] : string))

(* Rejection sampling: with bound = 2^61 + 1 roughly half of all 62-bit
   draws land in the tail above the largest multiple of the bound and
   must be redrawn, so this bound exercises the rejection loop on nearly
   every call; every returned value must still be in range. *)
let test_prng_rejection_in_range () =
  let r = Tdrutil.Prng.create ~seed:5 in
  let huge = (max_int / 2) + 2 in
  for _ = 1 to 200 do
    let x = Tdrutil.Prng.int r huge in
    if x < 0 || x >= huge then Alcotest.fail "huge bound out of range"
  done

(* ------------------- slab-chunked shadow tables --------------------- *)

let test_islab_basic () =
  let t = Tdrutil.Islab.create ~chunk:16 ~fill:(-1) () in
  Alcotest.(check int) "fresh has no chunks" 0 (Tdrutil.Islab.n_chunks t);
  Alcotest.(check int) "untouched reads fill" (-1) (Tdrutil.Islab.get t 12345);
  Alcotest.(check int) "read allocates nothing" 0 (Tdrutil.Islab.n_chunks t);
  Tdrutil.Islab.set t 3 7;
  Alcotest.(check int) "written slot" 7 (Tdrutil.Islab.get t 3);
  Alcotest.(check int) "one chunk" 1 (Tdrutil.Islab.n_chunks t);
  Alcotest.(check int) "neighbour in same chunk reads fill" (-1)
    (Tdrutil.Islab.get t 4);
  (* a far-away write lands in its own chunk; the gap stays unallocated *)
  Tdrutil.Islab.set t 100_000 9;
  Alcotest.(check int) "far slot" 9 (Tdrutil.Islab.get t 100_000);
  Alcotest.(check int) "only two chunks" 2 (Tdrutil.Islab.n_chunks t);
  Alcotest.check_raises "negative get" (Invalid_argument "Islab.get: negative index")
    (fun () -> ignore (Tdrutil.Islab.get t (-1)));
  Alcotest.check_raises "negative set" (Invalid_argument "Islab.set: negative index")
    (fun () -> Tdrutil.Islab.set t (-1) 0)

let test_islab_slot_stride () =
  (* chunk size below the minimum is rounded up so a stride-8 row never
     straddles chunks *)
  let t = Tdrutil.Islab.create ~chunk:1 ~fill:0 () in
  Alcotest.(check bool) "chunk floor >= 8" true (Tdrutil.Islab.chunk_slots t >= 8);
  let arr = Tdrutil.Islab.chunk t 16 in
  let off = 16 land (Array.length arr - 1) in
  for k = 0 to 7 do
    arr.(off + k) <- 100 + k
  done;
  for k = 0 to 7 do
    Alcotest.(check int) "row readable via get" (100 + k)
      (Tdrutil.Islab.get t (16 + k))
  done;
  Alcotest.check_raises "non-positive chunk size"
    (Invalid_argument "Islab.create: chunk size must be positive") (fun () ->
      ignore (Tdrutil.Islab.create ~chunk:0 ~fill:0 ()));
  (* past the maximum, rounding up would not terminate (2^62) or the
     first chunk would not fit in memory (2^30) *)
  let max = Tdrutil.Islab.max_chunk in
  Alcotest.(check int) "maximum accepted" max
    (Tdrutil.Islab.chunk_slots (Tdrutil.Islab.create ~chunk:max ~fill:0 ()));
  let too_big = Fmt.str "Islab.create: chunk size exceeds %d slots" max in
  List.iter
    (fun n ->
      Alcotest.check_raises (Fmt.str "islab chunk %d" n)
        (Invalid_argument too_big) (fun () ->
          ignore (Tdrutil.Islab.create ~chunk:n ~fill:0 ()));
      Alcotest.check_raises (Fmt.str "slab chunk %d" n)
        (Invalid_argument too_big) (fun () ->
          ignore (Tdrutil.Slab.create ~chunk:n ~fill:0 ())))
    [ max + 1; 1 lsl 30; max_int ]

(* Model-based check of both slab tables against a plain array: random
   get/set/chunk/iter_present sequences, with chunk sizes around the
   8-slot floor so a run crosses many chunk boundaries, and after every
   step the chunk count and backing words the detectors' gauges report
   (chunks plus a directory of one word per chunk index, grown by at
   most doubling). *)
type slab_op =
  | Get of int
  | Set of int * int
  | Row of int * int  (** stride, aligned first slot: {!Tdrutil.Islab.chunk} *)
  | Iter  (** {!Tdrutil.Slab.iter_present} *)

let pp_slab_op ppf = function
  | Get i -> Fmt.pf ppf "get %d" i
  | Set (i, v) -> Fmt.pf ppf "set %d %d" i v
  | Row (s, i) -> Fmt.pf ppf "row %d/%d" i s
  | Iter -> Fmt.string ppf "iter"

(* indices and rows end below 4104, chunks have at most 64 slots *)
let model_span = 4096 + 128

let arb_slab_case =
  let open QCheck.Gen in
  let idx = frequency [ (4, int_bound 127); (1, int_bound 4095) ] in
  let op =
    frequency
      [
        (3, map (fun i -> Get i) idx);
        (4, map2 (fun i v -> Set (i, v)) idx (int_bound 1000));
        (2, map2 (fun s i -> Row (s, i / s * s)) (oneofl [ 1; 2; 4; 8 ]) idx);
        (1, return Iter);
      ]
  in
  QCheck.make
    ~print:
      Fmt.(
        str "chunk %a"
          (pair ~sep:(any ": ") int (list ~sep:(any "; ") pp_slab_op)))
    (pair (int_range 1 40) (list_size (0 -- 60) op))

let slabs_match_model =
  QCheck.Test.make ~count:300 ~name:"Islab and Slab match a plain-array model"
    arb_slab_case (fun (chunk, ops) ->
      let fill = -7 in
      let rec pow2 p = if p >= max 8 chunk then p else pow2 (2 * p) in
      let slots = pow2 1 in
      let model = Array.make model_span fill in
      let touched = Hashtbl.create 16 in
      let touch i = Hashtbl.replace touched (i / slots) () in
      let it = Tdrutil.Islab.create ~chunk ~fill () in
      let bt = Tdrutil.Slab.create ~chunk ~fill () in
      let accounting what ~n_chunks ~words =
        let chunks = Hashtbl.length touched in
        let top = Hashtbl.fold (fun ci () m -> max m (ci + 1)) touched 0 in
        if n_chunks <> chunks then
          QCheck.Test.fail_reportf "%s: %d chunks, model %d" what n_chunks
            chunks;
        let slab_words = chunks * slots in
        if words < slab_words + top || words > slab_words + (2 * top) then
          QCheck.Test.fail_reportf
            "%s: %d words, model %d chunks of %d + dir %d..%d" what words
            chunks slots top (2 * top)
      in
      let expect what got want =
        if got <> want then
          QCheck.Test.fail_reportf "%s: got %d, model %d" what got want
      in
      if Tdrutil.Islab.chunk_slots it <> slots then
        QCheck.Test.fail_reportf "chunk_slots %d, model %d"
          (Tdrutil.Islab.chunk_slots it) slots;
      List.iter
        (fun op ->
          (match op with
          | Get i ->
              expect (Fmt.str "islab get %d" i) (Tdrutil.Islab.get it i)
                model.(i);
              expect (Fmt.str "slab get %d" i) (Tdrutil.Slab.get bt i)
                model.(i)
          | Set (i, v) ->
              Tdrutil.Islab.set it i v;
              Tdrutil.Slab.set bt i v;
              model.(i) <- v;
              touch i
          | Row (stride, i) ->
              let row = Tdrutil.Islab.chunk it i in
              let off = i land (Array.length row - 1) in
              for k = 0 to stride - 1 do
                expect (Fmt.str "islab row %d+%d" i k) row.(off + k)
                  model.(i + k);
                row.(off + k) <- i + k;
                model.(i + k) <- i + k;
                Tdrutil.Slab.set bt (i + k) (i + k)
              done;
              touch i
          | Iter ->
              let got = ref [] in
              Tdrutil.Slab.iter_present (fun v -> got := v :: !got) bt;
              let want =
                List.concat_map
                  (fun ci -> Array.to_list (Array.sub model (ci * slots) slots))
                  (List.sort compare
                     (Hashtbl.fold (fun ci () l -> ci :: l) touched []))
              in
              if List.rev !got <> want then
                QCheck.Test.fail_reportf "iter_present: %d slots, model %d"
                  (List.length !got) (List.length want));
          accounting "islab" ~n_chunks:(Tdrutil.Islab.n_chunks it)
            ~words:(Tdrutil.Islab.words it);
          accounting "slab" ~n_chunks:(Tdrutil.Slab.n_chunks bt)
            ~words:(Tdrutil.Slab.words bt))
        ops;
      true)

let test_slab_basic () =
  let t = Tdrutil.Slab.create ~chunk:16 ~fill:None () in
  Alcotest.(check int) "fresh has no chunks" 0 (Tdrutil.Slab.n_chunks t);
  Alcotest.(check bool) "untouched reads fill" true
    (Tdrutil.Slab.get t 999 = None);
  Tdrutil.Slab.set t 5 (Some 42);
  Alcotest.(check bool) "written slot" true (Tdrutil.Slab.get t 5 = Some 42);
  Alcotest.(check int) "one chunk" 1 (Tdrutil.Slab.n_chunks t);
  let seen = ref 0 in
  Tdrutil.Slab.iter_present
    (fun v -> match v with Some _ -> incr seen | None -> ())
    t;
  Alcotest.(check int) "iter_present sees the one element" 1 !seen;
  Alcotest.check_raises "negative get" (Invalid_argument "Slab.get: negative index")
    (fun () -> ignore (Tdrutil.Slab.get t (-1)))

let () =
  Alcotest.run "util"
    [
      ( "vec",
        [
          Alcotest.test_case "push/get" `Quick test_vec_push_get;
          Alcotest.test_case "set/last" `Quick test_vec_set_last;
          Alcotest.test_case "iter/fold" `Quick test_vec_iter_fold;
          QCheck_alcotest.to_alcotest vec_model;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "choose" `Quick test_prng_choose;
          Alcotest.test_case "choose one draw" `Quick
            test_prng_choose_one_draw;
          Alcotest.test_case "rejection in range" `Quick
            test_prng_rejection_in_range;
        ] );
      ( "slab",
        [
          Alcotest.test_case "islab basics" `Quick test_islab_basic;
          Alcotest.test_case "islab slot/stride" `Quick test_islab_slot_stride;
          QCheck_alcotest.to_alcotest slabs_match_model;
          Alcotest.test_case "slab basics" `Quick test_slab_basic;
        ] );
    ]
