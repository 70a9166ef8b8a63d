(** Random async-finish program generator for property-based testing.

    Generates well-typed, terminating, normalized Mini-HJ programs that
    exercise the whole pipeline: random block structure with nested
    [async]/[finish]/[if]/[for]/blocks, reads and writes of a small pool of
    shared global arrays, deterministic arithmetic, and [work(...)] calls
    for varied step durations.  The driving properties (see
    [test/test_properties.ml]):

    - repair converges and the repaired program is race-free;
    - the repaired program's output equals the serial elision's output
      (paper Problem 1, condition 4);
    - statement order and count are preserved modulo inserted finishes.

    Programs use only bounded [for] loops and non-recursive helper calls,
    so every generated program terminates. *)

type config = {
  max_depth : int;  (** structural nesting bound *)
  max_stmts : int;  (** statements per block bound *)
  n_arrays : int;  (** shared global arrays *)
  arr_len : int;
  allow_finish : bool;  (** emit pre-existing finish statements *)
  allow_calls : bool;  (** emit helper-function calls *)
}

let default =
  {
    max_depth = 4;
    max_stmts = 5;
    n_arrays = 3;
    arr_len = 8;
    allow_finish = true;
    allow_calls = true;
  }

let arr_name k = Fmt.str "g%d" k

(* A random in-bounds index expression: constant, or derived from the
   loop variable when one is in scope. *)
let gen_index cfg rng ~loop_vars =
  match loop_vars with
  | v :: _ when Tdrutil.Prng.bool rng ->
      Fmt.str "(%s + %d) %% %d" v (Tdrutil.Prng.int rng cfg.arr_len) cfg.arr_len
  | _ -> string_of_int (Tdrutil.Prng.int rng cfg.arr_len)

let gen_value_expr cfg rng ~loop_vars =
  match Tdrutil.Prng.int rng 4 with
  | 0 -> string_of_int (Tdrutil.Prng.int rng 100)
  | 1 ->
      Fmt.str "%s[%s] + %d"
        (arr_name (Tdrutil.Prng.int rng cfg.n_arrays))
        (gen_index cfg rng ~loop_vars)
        (Tdrutil.Prng.int rng 10)
  | 2 -> (
      match loop_vars with
      | v :: _ -> Fmt.str "%s * %d" v (1 + Tdrutil.Prng.int rng 5)
      | [] -> string_of_int (Tdrutil.Prng.int rng 100))
  | _ ->
      Fmt.str "%s[%s] * 2"
        (arr_name (Tdrutil.Prng.int rng cfg.n_arrays))
        (gen_index cfg rng ~loop_vars)

let rec gen_stmt cfg rng ~depth ~loop_vars ~locals ~in_helper buf indent =
  let pad = String.make (2 * indent) ' ' in
  let choice =
    Tdrutil.Prng.int rng (if depth >= cfg.max_depth then 5 else 13)
  in
  match choice with
  | 0 | 1 ->
      (* write *)
      Buffer.add_string buf
        (Fmt.str "%s%s[%s] = %s;\n" pad
           (arr_name (Tdrutil.Prng.int rng cfg.n_arrays))
           (gen_index cfg rng ~loop_vars)
           (gen_value_expr cfg rng ~loop_vars))
  | 2 ->
      (* read into sink *)
      Buffer.add_string buf
        (Fmt.str "%ssink[0] = sink[0] + %s[%s];\n" pad
           (arr_name (Tdrutil.Prng.int rng cfg.n_arrays))
           (gen_index cfg rng ~loop_vars))
  | 3 ->
      (* work *)
      Buffer.add_string buf
        (Fmt.str "%swork(%d);\n" pad (1 + Tdrutil.Prng.int rng 20))
  | 4 ->
      (* immutable local declaration + immediate use; later statements of
         this block may reference it too (see gen_block), which exercises
         the repair tool's declaration-visibility constraint *)
      let name = Fmt.str "t%d" (List.length !locals + List.length loop_vars) in
      Buffer.add_string buf
        (Fmt.str "%sval %s: int = %s;\n" pad name
           (gen_value_expr cfg rng ~loop_vars));
      Buffer.add_string buf
        (Fmt.str "%s%s[%s] = %s + %d;\n" pad
           (arr_name (Tdrutil.Prng.int rng cfg.n_arrays))
           (gen_index cfg rng ~loop_vars)
           name
           (Tdrutil.Prng.int rng 5));
      locals := name :: !locals
  | 5 ->
      (* async: may read the enclosing block's immutable locals *)
      (match !locals with
      | x :: _ when Tdrutil.Prng.bool rng ->
          Buffer.add_string buf (pad ^ "async {\n");
          Buffer.add_string buf
            (Fmt.str "%s  %s[%s] = %s * 2;\n" pad
               (arr_name (Tdrutil.Prng.int rng cfg.n_arrays))
               (gen_index cfg rng ~loop_vars)
               x);
          gen_block cfg rng ~depth:(depth + 1) ~loop_vars ~in_helper buf
            (indent + 1);
          Buffer.add_string buf (pad ^ "}\n")
      | _ ->
          Buffer.add_string buf (pad ^ "async {\n");
          gen_block cfg rng ~depth:(depth + 1) ~loop_vars ~in_helper buf
            (indent + 1);
          Buffer.add_string buf (pad ^ "}\n"))
  | 6 when cfg.allow_finish ->
      Buffer.add_string buf (pad ^ "finish {\n");
      gen_block cfg rng ~depth:(depth + 1) ~loop_vars ~in_helper buf
        (indent + 1);
      Buffer.add_string buf (pad ^ "}\n")
  | 7 ->
      (* if on shared state; the index is drawn before the array, an
         order every seeded stream (and the goldens built on them) pins *)
      let idx = gen_index cfg rng ~loop_vars in
      let arr = arr_name (Tdrutil.Prng.int rng cfg.n_arrays) in
      Buffer.add_string buf (Fmt.str "%sif (%s[%s] %% 2 == 0) {\n" pad arr idx);
      gen_block cfg rng ~depth:(depth + 1) ~loop_vars ~in_helper buf
        (indent + 1);
      Buffer.add_string buf (pad ^ "}\n")
  | 8 ->
      (* bounded for (sometimes a forasync) *)
      let v = Fmt.str "i%d" (List.length loop_vars) in
      let kw = if Tdrutil.Prng.int rng 4 = 0 then "forasync" else "for" in
      Buffer.add_string buf
        (Fmt.str "%s%s (%s = 0 to %d) {\n" pad kw v
           (1 + Tdrutil.Prng.int rng 2));
      gen_block cfg rng ~depth:(depth + 1) ~loop_vars:(v :: loop_vars)
        ~in_helper buf (indent + 1);
      Buffer.add_string buf (pad ^ "}\n")
  | 9 when cfg.allow_calls && not in_helper ->
      Buffer.add_string buf
        (Fmt.str "%shelper%d();\n" pad (Tdrutil.Prng.int rng 2))
  | 11 ->
      (* affine parallel loop over provably disjoint cells: every
         iteration writes g[a*i + b] with a != 0 (sometimes strided,
         sometimes an interleaved even/odd pair), so the index-sensitive
         refinement can discharge the cross-iteration self-pair; values
         avoid array reads so the loop's conflicts are all refinable *)
      let arr = arr_name (Tdrutil.Prng.int rng cfg.n_arrays) in
      let v = Fmt.str "i%d" (List.length loop_vars) in
      (match Tdrutil.Prng.int rng 3 with
      | 0 ->
          (* g[i] = ... *)
          Buffer.add_string buf
            (Fmt.str "%sforasync (%s = 0 to %d) {\n%s  %s[%s] = %s * %d;\n%s}\n"
               pad v (cfg.arr_len - 1) pad arr v v
               (1 + Tdrutil.Prng.int rng 5)
               pad)
      | 1 ->
          (* strided: g[a*i + b] = ... *)
          let a = 2 + Tdrutil.Prng.int rng 2 in
          let b = Tdrutil.Prng.int rng a in
          let hi = (cfg.arr_len - 1 - b) / a in
          Buffer.add_string buf
            (Fmt.str
               "%sforasync (%s = 0 to %d) {\n%s  %s[%s * %d + %d] = %d;\n%s}\n"
               pad v hi pad arr v a b
               (Tdrutil.Prng.int rng 100)
               pad)
      | _ ->
          (* interleaved even/odd cells within one iteration *)
          let hi = (cfg.arr_len - 2) / 2 in
          Buffer.add_string buf
            (Fmt.str
               "%sforasync (%s = 0 to %d) {\n\
                %s  %s[2 * %s] = %s;\n\
                %s  %s[2 * %s + 1] = %d;\n\
                %s}\n"
               pad v hi pad arr v v pad arr v
               (Tdrutil.Prng.int rng 100)
               pad))
  | 12 ->
      (* affine parallel loop that genuinely races: neighbouring cells
         overlap across iterations (g[i] vs g[i+1]), or every iteration
         hits one constant cell — the refinement must keep these *)
      let arr = arr_name (Tdrutil.Prng.int rng cfg.n_arrays) in
      let v = Fmt.str "i%d" (List.length loop_vars) in
      if Tdrutil.Prng.bool rng then
        Buffer.add_string buf
          (Fmt.str
             "%sforasync (%s = 0 to %d) {\n\
              %s  %s[%s] = %s + 1;\n\
              %s  %s[%s + 1] = %s;\n\
              %s}\n"
             pad v (cfg.arr_len - 2) pad arr v v pad arr v v pad)
      else
        Buffer.add_string buf
          (Fmt.str "%sforasync (%s = 0 to %d) {\n%s  %s[%d] = %s;\n%s}\n"
             pad v (cfg.arr_len - 1) pad arr
             (Tdrutil.Prng.int rng cfg.arr_len)
             v pad)
  | _ ->
      (* nested block *)
      Buffer.add_string buf (pad ^ "{\n");
      gen_block cfg rng ~depth:(depth + 1) ~loop_vars ~in_helper buf
        (indent + 1);
      Buffer.add_string buf (pad ^ "}\n")

and gen_block cfg rng ~depth ~loop_vars ~in_helper buf indent =
  let n = 1 + Tdrutil.Prng.int rng cfg.max_stmts in
  let locals = ref [] in
  for _ = 1 to n do
    gen_stmt cfg rng ~depth ~loop_vars ~locals ~in_helper buf indent
  done;
  (* close the block with a read of each declared local so that wrapping
     decisions must respect declaration visibility *)
  List.iter
    (fun x ->
      Buffer.add_string buf
        (Fmt.str "%ssink[0] = sink[0] + %s;\n"
           (String.make (2 * indent) ' ')
           x))
    !locals

(** Generate a program from a seed.  Same seed, same program. *)
let generate ?(cfg = default) ~seed () : string =
  let rng = Tdrutil.Prng.create ~seed in
  let buf = Buffer.create 1024 in
  for k = 0 to cfg.n_arrays - 1 do
    Buffer.add_string buf
      (Fmt.str "var %s: int[] = new int[%d];\n" (arr_name k) cfg.arr_len)
  done;
  Buffer.add_string buf (Fmt.str "var sink: int[] = new int[1];\n\n");
  if cfg.allow_calls then
    for h = 0 to 1 do
      Buffer.add_string buf (Fmt.str "def helper%d() {\n" h);
      gen_block cfg rng ~depth:2 ~loop_vars:[] ~in_helper:true buf 1;
      Buffer.add_string buf "}\n\n"
    done;
  Buffer.add_string buf "def main() {\n";
  gen_block cfg rng ~depth:0 ~loop_vars:[] ~in_helper:false buf 1;
  (* a final read of everything, so unsynchronized writes race *)
  Buffer.add_string buf
    (Fmt.str "  for (v = 0 to %d) {\n" (cfg.arr_len - 1));
  for k = 0 to cfg.n_arrays - 1 do
    Buffer.add_string buf
      (Fmt.str "    sink[0] = sink[0] + %s[v];\n" (arr_name k))
  done;
  Buffer.add_string buf "  }\n  print(sink[0]);\n}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Closed-form scale workloads                                          *)
(* ------------------------------------------------------------------ *)

type scale_shape =
  | Grid of { tasks : int; reps : int }
  | Deep of { depth : int; reps : int }
  | Hot of { tasks : int; reps : int; hot : int }
  | Phased of { phases : int; tasks : int; reps : int; hot : int }
  | Sparse of { pad_arrays : int; pad_len : int; tasks : int; reps : int }

type scale_config = { shape : scale_shape; racy_pairs : int }

(* Per inner-loop iteration, the interpreter monitors the global-variable
   read of each array base in addition to the cell accesses: [g[x] = g[x]
   + e] is 4 monitored accesses (2 base reads, 1 cell read, 1 cell
   write), and the Hot/Phased body [g[i] = g[i] + hot[..]] is 6. *)
let scale_accesses { shape; racy_pairs } =
  let body =
    match shape with
    | Grid { tasks; reps } -> 4 * tasks * reps
    | Deep { depth; reps } -> 4 * depth * reps
    | Hot { tasks; reps; hot } -> (6 * tasks * reps) + (2 * hot)
    | Phased { phases; tasks; reps; hot } ->
        (6 * phases * tasks * reps) + (2 * hot)
    | Sparse { tasks; reps; _ } -> 4 * tasks * reps
  in
  (* each racy pair: a bare write plus a read-increment, with base reads *)
  body + (6 * racy_pairs)

let check_pos what n =
  if n <= 0 then invalid_arg (Fmt.str "Progen scale: %s must be positive" what)

(* [racy_pairs] unjoined async pairs on dedicated cells of [r], emitted
   after the main workload.  Pair [k] produces exactly two deterministic
   race records on [r[k]] (a write-read and a write-write), so the
   config's race density — and with a small spill cap, the spill path —
   is under test control without perturbing the main phase. *)
let add_racy buf racy_pairs =
  if racy_pairs > 0 then begin
    Buffer.add_string buf "  finish {\n";
    for k = 0 to racy_pairs - 1 do
      Buffer.add_string buf
        (Fmt.str "    async {\n      r[%d] = %d;\n    }\n" k k);
      Buffer.add_string buf
        (Fmt.str "    async {\n      r[%d] = r[%d] + 1;\n    }\n" k k)
    done;
    Buffer.add_string buf "  }\n"
  end

let add_header buf ~racy_pairs decls =
  List.iter
    (fun (name, len) ->
      Buffer.add_string buf (Fmt.str "var %s: int[] = new int[%d];\n" name len))
    decls;
  Buffer.add_string buf
    (Fmt.str "var r: int[] = new int[%d];\n\n" (max 1 racy_pairs));
  Buffer.add_string buf "def main() {\n"

let add_footer buf ~racy_pairs ~result =
  add_racy buf racy_pairs;
  Buffer.add_string buf (Fmt.str "  print(%s + r[0]);\n}\n" result)

(** Generate the Mini-HJ source of a scale workload: a closed-form
    program whose monitored-access count is [scale_accesses cfg] up to
    small constants, race-free except for the [racy_pairs] appendix.

    - [Grid]: one wide [forasync] over provably disjoint array slices —
      peak parallelism with a large, uniformly touched address space.
    - [Deep]: a [depth]-long chain of nested [finish { async { ... } }]
      levels, each doing [reps] accesses — stresses live-task state
      (clock count, bag depth), not address volume.
    - [Hot]: wide [forasync] where every task's inner loop re-reads a
      small shared [hot] array — address skew: a few cells accumulate
      reader entries from every task.
    - [Phased]: [phases] sequential top-level finishes of the [Hot]
      shape over the {e same} arrays — after each phase only the root
      task is live, so epoch GC can retire the previous phase's shadow
      entries; without GC the hot cells' lists grow by [tasks] entries
      per phase. *)
let generate_scaled { shape; racy_pairs } : string =
  if racy_pairs < 0 then invalid_arg "Progen scale: racy_pairs negative";
  let buf = Buffer.create 4096 in
  (match shape with
  | Grid { tasks; reps } ->
      check_pos "tasks" tasks;
      check_pos "reps" reps;
      add_header buf ~racy_pairs [ ("g", tasks * reps) ];
      Buffer.add_string buf
        (Fmt.str
           "  finish {\n\
           \    forasync (i = 0 to %d) {\n\
           \      for (j = 0 to %d) {\n\
           \        g[i * %d + j] = g[i * %d + j] + j;\n\
           \      }\n\
           \    }\n\
           \  }\n"
           (tasks - 1) (reps - 1) reps reps);
      add_footer buf ~racy_pairs ~result:"g[0]"
  | Deep { depth; reps } ->
      check_pos "depth" depth;
      check_pos "reps" reps;
      (* cells are shared across levels, but every level's task is an
         ancestor of the next level's, so all conflicts are ordered *)
      let len = min (depth * reps) 65536 in
      add_header buf ~racy_pairs [ ("g", len) ];
      for d = 0 to depth - 1 do
        Buffer.add_string buf
          (Fmt.str
             "  finish {\n\
             \  async {\n\
             \  for (j%d = 0 to %d) {\n\
             \    g[(%d + j%d) %% %d] = g[(%d + j%d) %% %d] + 1;\n\
             \  }\n"
             d (reps - 1) (d * reps) d len (d * reps) d len)
      done;
      for _ = 1 to depth do
        Buffer.add_string buf "  }\n  }\n"
      done;
      add_footer buf ~racy_pairs ~result:"g[0]"
  | Sparse { pad_arrays; pad_len; tasks; reps } ->
      check_pos "pad_arrays" pad_arrays;
      check_pos "pad_len" pad_len;
      check_pos "tasks" tasks;
      check_pos "reps" reps;
      (* the pad arrays are declared (so their cells occupy the interned
         id space) but never accessed; all traffic lands in the last
         declared array, i.e. the top of the id range — a dense per-id
         shadow would span every pad id, a chunked one only the touched
         tail *)
      let pads =
        List.init pad_arrays (fun k -> (Fmt.str "p%d" k, pad_len))
      in
      add_header buf ~racy_pairs (pads @ [ ("g", tasks * reps) ]);
      Buffer.add_string buf
        (Fmt.str
           "  finish {\n\
           \    forasync (i = 0 to %d) {\n\
           \      for (j = 0 to %d) {\n\
           \        g[i * %d + j] = g[i * %d + j] + j;\n\
           \      }\n\
           \    }\n\
           \  }\n"
           (tasks - 1) (reps - 1) reps reps);
      add_footer buf ~racy_pairs ~result:"g[0]"
  | Hot { tasks; reps; hot } ->
      check_pos "tasks" tasks;
      check_pos "reps" reps;
      check_pos "hot" hot;
      add_header buf ~racy_pairs [ ("g", tasks); ("hot", hot) ];
      Buffer.add_string buf
        (Fmt.str "  for (k = 0 to %d) {\n    hot[k] = k;\n  }\n" (hot - 1));
      Buffer.add_string buf
        (Fmt.str
           "  finish {\n\
           \    forasync (i = 0 to %d) {\n\
           \      for (j = 0 to %d) {\n\
           \        g[i] = g[i] + hot[j %% %d];\n\
           \      }\n\
           \    }\n\
           \  }\n"
           (tasks - 1) (reps - 1) hot);
      add_footer buf ~racy_pairs ~result:"g[0]"
  | Phased { phases; tasks; reps; hot } ->
      check_pos "phases" phases;
      check_pos "tasks" tasks;
      check_pos "reps" reps;
      check_pos "hot" hot;
      add_header buf ~racy_pairs [ ("g", tasks); ("hot", hot) ];
      Buffer.add_string buf
        (Fmt.str "  for (k = 0 to %d) {\n    hot[k] = k;\n  }\n" (hot - 1));
      for p = 0 to phases - 1 do
        Buffer.add_string buf
          (Fmt.str
             "  finish {\n\
             \    forasync (i = 0 to %d) {\n\
             \      for (j = 0 to %d) {\n\
             \        g[i] = g[i] + hot[(j + %d) %% %d];\n\
             \      }\n\
             \    }\n\
             \  }\n"
             (tasks - 1) (reps - 1) p hot)
      done;
      add_footer buf ~racy_pairs ~result:"g[0]");
  Buffer.contents buf

(** Named full-size presets, each ~10^6 monitored accesses (the sizes
    the committed BENCH_scale.json rows use). *)
let scale_presets : (string * scale_config) list =
  [
    ("grid-1m", { shape = Grid { tasks = 1024; reps = 256 }; racy_pairs = 4 });
    ("deep-1m", { shape = Deep { depth = 512; reps = 512 }; racy_pairs = 2 });
    ( "hot-1m",
      { shape = Hot { tasks = 2048; reps = 85; hot = 64 }; racy_pairs = 8 } );
    ( "phased-1m",
      {
        shape = Phased { phases = 16; tasks = 256; reps = 43; hot = 64 };
        racy_pairs = 16;
      } );
    ( "sparse-1m",
      {
        shape =
          Sparse { pad_arrays = 64; pad_len = 65536; tasks = 1024; reps = 256 };
        racy_pairs = 4;
      } );
  ]
