(** Registry of all Table 1 benchmarks, in the paper's order. *)

let all : Bench.t list =
  [
    Fibonacci.bench;
    Quicksort.bench;
    Mergesort.bench;
    Spanning_tree.bench;
    Nqueens.bench;
    Series.bench;
    Sor.bench;
    Crypt.bench;
    Sparse.bench;
    Lufact.bench;
    Fannkuch.bench;
    Mandelbrot.bench;
  ]

let find name =
  List.find_opt
    (fun (b : Bench.t) ->
      String.lowercase_ascii b.name = String.lowercase_ascii name)
    all

let names = List.map (fun (b : Bench.t) -> b.Bench.name) all

(* ------------------------------------------------------------------ *)
(* Scale workloads                                                      *)
(* ------------------------------------------------------------------ *)

(* Closed-form detector-stress benchmarks (DESIGN.md §15).  Kept out of
   [all]: Table 1 drives the repair experiments and its listings are
   golden-tested; these stress the detectors' memory bounds.  The
   repair-mode sources are small (the racy appendix is still genuinely
   repairable); the perf-mode sources are the ~10^6-access presets. *)

let scale_bench ~name ~descr ~(small : Progen.scale_config)
    ~(big : Progen.scale_config) : Bench.t =
  {
    name;
    suite = "Scale";
    descr;
    repair_params = Fmt.str "~%d accesses" (Progen.scale_accesses small);
    perf_params = Fmt.str "~%d accesses" (Progen.scale_accesses big);
    repair_src = Progen.generate_scaled small;
    perf_src = Progen.generate_scaled big;
  }

let scale : Bench.t list =
  [
    scale_bench ~name:"scale-grid"
      ~descr:"wide forasync over disjoint slices, racy appendix"
      ~small:
        { shape = Progen.Grid { tasks = 32; reps = 16 }; racy_pairs = 2 }
      ~big:(List.assoc "grid-1m" Progen.scale_presets);
    scale_bench ~name:"scale-hot"
      ~descr:"hot-address skew: shared read-mostly cells, racy appendix"
      ~small:
        {
          shape = Progen.Hot { tasks = 32; reps = 8; hot = 4 };
          racy_pairs = 2;
        }
      ~big:(List.assoc "hot-1m" Progen.scale_presets);
  ]
