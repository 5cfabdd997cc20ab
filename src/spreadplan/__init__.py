"""Multi-robot grid path planning with usage-balancing heuristics."""

from .grid import (DistanceField, FieldCache, GridMap, distance_field,
                   generate_instance, generate_random_grid, generate_warehouse,
                   grid_to_movingai, parse_movingai_map)
from .lifelong import (GoalStream, HorizonConfig, LifelongStats,
                       config_for_variant, run_lifelong, solve_mpp_via_horizon,
                       truncate_goal_list, windowed_solver)
from .oneshot import (MppInstance, Solution, default_resolver_prioritized,
                      solve_mpp, validate_solution)
from .search import (NoPathError, SearchConfig, SearchStats,
                     find_path_cost_to_come, find_path_cost_to_go,
                     order_robots, plan_independent_paths)
from .usage import UsageParams, UsageTable

__all__ = [
    "DistanceField", "FieldCache", "GridMap", "distance_field",
    "generate_instance",
    "generate_random_grid", "generate_warehouse", "grid_to_movingai",
    "parse_movingai_map",
    "GoalStream", "HorizonConfig", "LifelongStats", "config_for_variant",
    "run_lifelong", "solve_mpp_via_horizon", "truncate_goal_list",
    "windowed_solver",
    "MppInstance", "Solution", "default_resolver_prioritized", "solve_mpp",
    "validate_solution",
    "NoPathError", "SearchConfig", "SearchStats", "find_path_cost_to_come",
    "find_path_cost_to_go", "order_robots", "plan_independent_paths",
    "UsageParams", "UsageTable",
]

__version__ = "0.1.0"
