#pragma once

// The built-in scenario library: factory functions for every registered
// workload. register_builtin_scenarios (registry.hpp) wires these under
// their canonical names; tests call the factories directly
// (make_boosted_lwfa takes the boost gamma, registered at 2 and 4).

#include "src/scenario/scenario_spec.hpp"

namespace mrpic::scenario {

// Baselines (the workload of the paper's scaling benchmarks).
ScenarioSpec make_quickstart();           // uniform thermal periodic box, FDTD
ScenarioSpec make_uniform_psatd();        // same box on the spectral solver

// LWFA family (paper Fig. 1a acceleration stage + injection variants).
ScenarioSpec make_lwfa();                 // gas-jet LWFA, self-injection
ScenarioSpec make_lwfa_mr();              // + ratio-2 MR patch over the wake
ScenarioSpec make_lwfa_downramp();        // density-downramp injection
ScenarioSpec make_lwfa_ionization();      // dopant-column ionization injection
ScenarioSpec make_lwfa_two_stage();       // injector jet + accelerator jet chain

// Lorentz-boosted frame (paper Table I "Boosted frame", Sec. VIII.B).
ScenarioSpec make_boosted_lwfa(Real gamma_boost);

// Solid targets (paper Fig. 1b injection stage + science case).
ScenarioSpec make_plasma_mirror();        // oblique-incidence overdense mirror
ScenarioSpec make_hybrid_target_mr();     // hybrid solid-gas target + MR patch
ScenarioSpec make_thin_foil_ion();        // thin-foil TNSA-like ion acceleration

} // namespace mrpic::scenario
