(** FindSchedule (Algorithm 3): a greedy, depth-by-depth search for a legal
    schedule realizing a candidate set of sharing opportunities.

    Each depth intersects (cached) Farkas-translated constraint polyhedra:
    weak satisfaction of the remaining dependences, the sharing-opportunity
    constraints of Table 1, the dimensionality constraints (Algorithm 1,
    via exact rational row-space/null-space reasoning), then greedily
    strengthens as many dependences as possible and samples one schedule row
    per statement.  The final constant dimension comes from a topological
    sort of the statements. *)

val find :
  ?stats:Opt_stats.t ->
  Sched_space.t ->
  prog:Riot_ir.Program.t ->
  q:Riot_analysis.Coaccess.t list ->
  deps:Riot_analysis.Coaccess.t list ->
  Riot_ir.Sched.program_sched option
(** [find ss ~prog ~q ~deps] returns a schedule realizing every opportunity
    in [q] while respecting every dependence in [deps], or [None].  Every
    feasibility check of a growing constraint system goes through one
    {!Riot_poly.Poly.Feasible} store, which re-eliminates only the
    constraint components a new constraint touches.  [stats], when given,
    is credited with the component eliminations run ([fm_runs]) and with a
    fuel-out ([fuel_outs]): a candidate whose sampling runs out of fuel is
    dropped, answered [None]. *)
