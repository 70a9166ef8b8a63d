(* Properties of the job-options codec (Repair.Options): the cache key
   covers every semantic row and nothing else, the JSON encoding and the
   CLI spelling both round-trip, and the protocol decode never raises on
   fuzzed job frames. *)

module O = Repair.Options
module P = Serve.Protocol
module J = Obs.Json
module G = QCheck.Gen

(* A value of the row's kind other than [v]. *)
let other : type a. a O.kind -> a -> a =
 fun kind v ->
  match kind with
  | O.Flag -> not v
  | O.Enum names -> snd (List.find (fun (_, x) -> x <> v) names)
  | O.Int _ -> Some (Option.fold ~none:7 ~some:succ v)
  | O.Path -> Some (Option.fold ~none:"f.trace" ~some:(fun p -> p ^ "x") v)
  | O.Sets -> ("n", 1) :: v

let test_key_covers_semantic_rows () =
  let base = O.key O.default in
  List.iter
    (fun (O.Field (r, v)) ->
      Alcotest.(check bool)
        (r.O.key ^ " changes the key")
        r.O.semantic
        (O.key (r.O.set (other r.O.kind v) O.default) <> base))
    (O.fields O.default);
  let spec flags =
    { P.id = "t"; op = P.Repair; src = "def main() {}"; flags }
  in
  let key = P.cache_key (spec P.default_flags) in
  List.iter
    (fun (label, flags) ->
      Alcotest.(check string) (label ^ " leaves the key") key
        (P.cache_key (spec flags)))
    [
      ("trace", { P.default_flags with trace = true });
      ("timeout_ms", { P.default_flags with timeout_ms = Some 9 });
      ("retries", { P.default_flags with retries = Some 0 });
    ]

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let word = G.(string_size ~gen:(char_range 'a' 'z') (1 -- 6))

let gen_value : type a. a O.kind -> a G.t = function
  | O.Flag -> G.bool
  | O.Enum names -> G.oneofl (List.map snd names)
  | O.Int { lo; hi; _ } -> G.(opt (int_range lo (min hi 100_000)))
  | O.Path -> G.(opt (map (fun w -> "/tmp/" ^ w ^ ".trace") word))
  | O.Sets -> G.(list_size (0 -- 3) (pair word (int_range (-50) 50)))

let gen_options : O.t G.t =
  List.fold_left
    (fun acc (O.Field (r, _)) ->
      G.(acc >>= fun o -> map (fun v -> r.O.set v o) (gen_value r.O.kind)))
    (G.return O.default) (O.fields O.default)

let print_options o = J.to_string (O.to_json o)
let arb_options = QCheck.make ~print:print_options gen_options

(* ------------------------------------------------------------------ *)
(* Round trips                                                         *)
(* ------------------------------------------------------------------ *)

let json_roundtrip =
  QCheck.Test.make ~name:"of_json (to_json o) = Ok o" ~count:500 arb_options
    (fun o -> O.of_json (O.to_json o) = Ok o)

(* The CLI spelling of [o]'s rows that [cmd] takes. *)
let argv_of cmd o =
  List.concat_map
    (fun (O.Field (r, v)) ->
      let flag = "--" ^ O.flag_name r in
      let valued s = [ flag ^ "=" ^ s ] in
      if not (List.mem cmd r.O.commands) then []
      else
        match (r.O.kind, v) with
        | O.Flag, b -> if b then [ flag ] else []
        | O.Enum names, x ->
            valued (fst (List.find (fun (_, y) -> y = x) names))
        | O.Int _, n ->
            Option.fold ~none:[] ~some:(fun n -> valued (string_of_int n)) n
        | O.Path, p -> Option.fold ~none:[] ~some:valued p
        | O.Sets, l ->
            List.concat_map (fun (k, n) -> valued (Fmt.str "%s=%d" k n)) l)
    (O.fields o)

(* [o] with the rows [cmd] does not take back at their defaults. *)
let restrict cmd o =
  List.fold_left
    (fun acc (O.Field (r, v)) ->
      if List.mem cmd r.O.commands then r.O.set v acc else acc)
    O.default (O.fields o)

let cli_roundtrip cmd name =
  QCheck.Test.make ~name ~count:300 arb_options (fun o ->
      let o = restrict cmd o in
      QCheck.assume (O.validate cmd o = Ok ());
      let argv = Array.of_list ("tdrepair" :: argv_of cmd o) in
      let cmd_ =
        Cmdliner.Cmd.v (Cmdliner.Cmd.info "tdrepair") (Options_cli.term cmd)
      in
      match Cmdliner.Cmd.eval_value ~argv cmd_ with
      | Ok (`Ok o') -> o' = o
      | _ ->
          QCheck.Test.fail_reportf "argv %s rejected"
            (String.concat " " (Array.to_list argv)))

(* A shadow chunk past the slab tables' maximum is refused where the
   row is decoded, naming the row: a served job must not reach
   Islab.create with it (2^62 slots never finishes rounding up, 2^30
   asks for an 8 GB chunk). *)
let test_shadow_chunk_bound () =
  let decode n = O.of_json (J.Obj [ ("shadow_chunk", J.Int n) ]) in
  let max = Tdrutil.Islab.max_chunk in
  Alcotest.(check bool) "maximum accepted" true
    (decode max = Ok { O.default with shadow_chunk = Some max });
  List.iter
    (fun n ->
      match decode n with
      | Error m ->
          Alcotest.(check bool) (Fmt.str "%d names the row" n) true
            (String.starts_with ~prefix:"flags.shadow_chunk:" m)
      | Ok _ -> Alcotest.failf "shadow_chunk %d accepted" n)
    [ max + 1; 1 lsl 30; max_int ]

(* Budgets are non-negative: a served job with a negative one is a bad
   request naming the key; zero is a budget like any other. *)
let test_budgets_bounded () =
  List.iter
    (fun key ->
      (match O.of_json (J.Obj [ (key, J.Int (-1)) ]) with
      | Error m ->
          Alcotest.(check bool) (key ^ " names the row") true
            (String.starts_with ~prefix:("flags." ^ key ^ ":") m)
      | Ok _ -> Alcotest.failf "%s -1 accepted" key);
      match O.of_json (J.Obj [ (key, J.Int 0) ]) with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "%s 0 rejected: %s" key m)
    [ "budget_fuel"; "budget_sdpst"; "budget_dp" ]

(* of_json reads the same declared ranges as the CLI: at every integer
   row's boundaries it accepts exactly the in-range values, and refuses
   the others with the row's key and the range's own words. *)
let test_int_rows_boundaries () =
  List.iter
    (fun (O.Field (r, _)) ->
      match r.O.kind with
      | O.Int range ->
          List.iter
            (fun n ->
              let got = O.of_json (J.Obj [ (r.O.key, J.Int n) ]) in
              match (O.out_of_range range n, got) with
              | None, Ok o ->
                  Alcotest.(check bool)
                    (Fmt.str "%s %d read" r.O.key n)
                    true
                    (r.O.set (Some n) O.default = o)
              | Some why, Error m ->
                  Alcotest.(check string)
                    (Fmt.str "%s %d" r.O.key n)
                    (Fmt.str "flags.%s: %s" r.O.key why)
                    m
              | _ ->
                  Alcotest.failf "%s %d: range and of_json disagree" r.O.key
                    n)
            [ 0; -1; range.lo - 1; range.lo; range.hi; range.hi + 1; max_int;
              min_int ]
      | _ -> ())
    (O.fields O.default);
  (* the words themselves, as served jobs have always been told them *)
  List.iter
    (fun (key, n, want) ->
      Alcotest.(check (result reject string))
        key (Error want)
        (O.of_json (J.Obj [ (key, J.Int n) ])))
    [ ("budget_fuel", -1, "flags.budget_fuel: must be non-negative");
      ("shadow_chunk", 0, "flags.shadow_chunk: chunk size must be positive");
      ( "shadow_chunk",
        Tdrutil.Islab.max_chunk + 1,
        Fmt.str "flags.shadow_chunk: chunk size must be at most %d"
          Tdrutil.Islab.max_chunk ) ]

(* ------------------------------------------------------------------ *)
(* NDJSON fuzz                                                         *)
(* ------------------------------------------------------------------ *)

let gen_json : J.t G.t =
  G.oneof
    [
      G.return J.Null;
      G.map (fun b -> J.Bool b) G.bool;
      G.map (fun n -> J.Int n) G.(int_range (-10) 10);
      G.map (fun f -> J.Float f) G.float;
      G.map (fun s -> J.Str s) G.(string_size ~gen:printable (0 -- 8));
      G.return (J.List [ J.Str "worker_crash"; J.Int 3 ]);
      G.map (fun k -> J.Obj [ (k, J.Str "x") ]) word;
    ]

(* Job frames built from well-typed flags, some values replaced by
   ill-typed or out-of-range ones, plus the job keys and unknown keys;
   some frames are cut short. *)
let gen_frame : string G.t =
  let open G in
  let mutate (k, v) =
    frequency
      [
        (4, return (k, v));
        (2, map (fun j -> (k, j)) gen_json);
        (1, return (k, J.Int (-1)));
        (1, return (k, J.Int 0));
      ]
  in
  gen_options >>= fun o ->
  let kvs = match O.to_json o with J.Obj kvs -> kvs | _ -> [] in
  flatten_l (List.map mutate kvs) >>= fun kvs ->
  list_size (0 -- 3)
    (pair
       (oneofl [ "timeout_ms"; "retries"; "faults"; "trace"; "static_prun" ])
       gen_json)
  >>= fun extra ->
  oneofl [ "detect"; "repair"; "lint"; "cancel"; "health"; "bogus" ]
  >>= fun op ->
  frequency [ (6, return (J.Obj (kvs @ extra))); (1, gen_json) ]
  >>= fun flags ->
  let frame =
    J.to_string
      (J.Obj
         [
           ("op", J.Str op);
           ("id", J.Str "f");
           ("src", J.Str "def main() {}");
           ("flags", flags);
         ])
  in
  frequency
    [
      (8, return frame);
      (1, map (fun n -> String.sub frame 0 (n mod String.length frame)) nat);
    ]

let parse_total =
  QCheck.Test.make ~name:"Protocol.parse never raises on fuzzed job frames"
    ~count:2000
    (QCheck.make ~print:Fun.id gen_frame)
    (fun line ->
      match P.parse line with
      | Ok (P.Job spec) -> (
          match P.validate spec with
          | Ok () | Error (P.Bad_request _) -> true
          | Error _ -> false)
      | Ok _ | Error (P.Malformed _ | P.Bad_request _) -> true
      | Error (P.Oversized _) -> false
      | exception e ->
          QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let () =
  Alcotest.run "options"
    [
      ( "codec",
        [
          Alcotest.test_case "key covers semantic rows" `Quick
            test_key_covers_semantic_rows;
          QCheck_alcotest.to_alcotest json_roundtrip;
          QCheck_alcotest.to_alcotest
            (cli_roundtrip O.Detect "detect argv round-trips");
          QCheck_alcotest.to_alcotest
            (cli_roundtrip O.Repair "repair argv round-trips");
          Alcotest.test_case "shadow_chunk bounded" `Quick
            test_shadow_chunk_bound;
          Alcotest.test_case "budgets bounded" `Quick test_budgets_bounded;
          Alcotest.test_case "int rows: of_json boundaries" `Quick
            test_int_rows_boundaries;
        ] );
      ("protocol", [ QCheck_alcotest.to_alcotest parse_total ]);
    ]
