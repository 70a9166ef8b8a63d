(** Repair-strategy tournament.

    The paper's repair is greedy finish insertion ({!Driver.repair}).
    This module adds three alternative repair strategies and a
    tournament that runs every applicable one, verifies each candidate
    race-free through the normal detect loop, scores it on the
    critical-path simulator ({!Compgraph.Score}), and picks the
    minimum-CPL winner (ties broken toward finish insertion, the
    paper's repair):

    - {b finish} — the interval-DP finish insertion of {!Driver.repair};
    - {b isolated} — wrap the racing statement ranges in [isolated]
      sections (mutual exclusion; scored with serialization edges
      between the conflicting section instances);
    - {b elide} — demote the offending [async] statements to inline
      sequential execution (the async elision of §2, applied
      selectively);
    - {b chunk} — split a racy loop into [C]-iteration sub-loops with a
      finish at every chunk seam, where [C] is the minimum racing
      iteration distance, so every conflicting pair is separated by a
      join.

    Every candidate is verified by a detection run of its program under
    the chosen backend; [isolated]-protected pairs are discharged by
    {!Isolate.split} and turned into mutual-exclusion edges for
    scoring.  Each distinct program is run once per call: the input's
    run is every candidate's first round and gives the test's expected
    output, and finish insertion's converged iteration is its verdict.
    Per-strategy outcomes land in the [strategy.*] metric family. *)

type kind = Finish | Isolated | Elide | Chunk

val kind_name : kind -> string

val pp_kind : kind Fmt.t

type candidate = {
  kind : kind;
  program : Mhj.Ast.program option;
      (** the rewritten program; [None] when the strategy is
          inapplicable or failed to converge *)
  verified : bool;  (** re-detection under the backend came back clean *)
  score : Compgraph.Score.t option;  (** scored execution of the candidate *)
  rounds : int;  (** rewrite rounds used *)
  note : string;  (** why the strategy produced nothing (diagnostic) *)
}

type choice = Options.strategy

val pp_choice : choice Fmt.t

type outcome = {
  winner : candidate;
  program : Mhj.Ast.program;  (** the winner's race-free rewrite *)
  candidates : candidate list;
      (** every strategy that was attempted: finish, isolated, elide,
          chunk *)
  finish_report : Driver.report option;
      (** the finish-insertion driver report, when that strategy ran *)
  metrics : (string * int) list;  (** the [strategy.*] metric family *)
}

(** Run the chosen repair strategy (or the full tournament) on a racy
    program.  The winner is the minimum-CPL verified-race-free
    candidate; ties break toward finish insertion.  The finish candidate
    is {!Driver.repair} under [options] (default {!Options.default} with
    backend [`Auto]); every run, the input's included, honours its mode,
    backend, fuel budget, pre-pass and shadow chunk.  [options.strategy]
    is not read: [choice] picks; and no run spills, since no candidate
    reports a spill count.
    @raise Driver.Unrepairable
      if no strategy produces a verified race-free candidate.
    @raise Diag.Fail when a budget is exhausted. *)
val run : ?options:Options.t -> choice -> Mhj.Ast.program -> outcome
