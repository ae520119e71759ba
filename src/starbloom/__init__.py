"""Decentralized SPARQL-BGP engine over characteristic-set fragments with
star-pattern Bloom indexes and a locality-aware planner on a simulated
peer-to-peer network."""

from .bloom import (BloomParams, ExactBitset, ParameterMismatchError,
                    PartitionedBitvector, SPBF, build_spbf, spbf_from_bytes,
                    spbf_to_bytes)
from .cardinality import (PlanContext, card_join_indexed, card_join_pair,
                          card_plan, card_star, card_star_indexed)
from .fragments import (CharacteristicSet, Fragment, characteristic_set,
                        fragment_by_cs, merge_infrequent, merge_to_count)
from .index import SPBFIndex, combine
from .model import (KnowledgeGraph, Query, StarPattern, Term, Triple,
                    TriplePattern, Variable, evaluate_bgp, star_decompose)
from .netsim import (Metrics, Network, NetworkConfig, create_network,
                     execute_plan, measure_relevance, run_query, upload)
from .ntriples import parse_ntriples, serialize_ntriples
from .planner import (CompatibilityGraph, PlanCost, compatibility_graph, cost,
                      explain, optimize, transfer_cost)
from .plans import Cartesian, EmptyPlan, Join, Plan, Selection, Union_
from .sparql import UnsupportedFeatureError, parse_query

__version__ = "0.1.0"
