"""Estimation and asymptotic inference for generalized Wasserstein-cost
contrasts between one-dimensional distributions from paired samples."""

from .assumptions import (CheckReport, check_cfg_d, check_cfg_e, check_cfg_ed,
                          check_compact, check_fg, check_pareto_dominance,
                          check_w2_hypotheses)
from .costs import (CostSpec, asymmetric_power_cost, builtin_cost, derivative,
                    evaluate, pinball_cost, power_cost, rate_vn, spliced_cost)
from .distributions import (CouplingSpec, DistSpec, PairSpec, Partition,
                            beta_dist, builtin_dist, bump_warp, comonotone,
                            custom_coupling, equal_pair, exponential, gaussian,
                            gaussian_coupling, independent, log_edge_dist,
                            make_pair, pair_uniforms, pareto, quantile_difference,
                            sample_pairs, uniform, warped_dist, weibull)
from .errors import (DomainError, HypothesisError, IntegrabilityError,
                     NumericalError, TruncationError, ValidationError,
                     WContrastError)
from .estimator import (PairedSample, PopulationCost, w_cost_empirical,
                        w_cost_population)
from .harness import (ExperimentConfig, StudyResult, emit_limit_draws,
                      emit_study, ingest_csv, load_config, run_clt_study)
from .inference import (TestResult, clt_alternative_distribution, gof_test,
                        two_sample_test, wp_distance_to_dist)
from .limitlaw import (REGIMES, BridgeGrid, LimitDraws, Regime, build_bridge_grid,
                       grid_mean_oracle_E, select_regime, sigma2_D)
from .seeding import derive_rng

__version__ = "0.1.0"
