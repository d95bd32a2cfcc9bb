"""Core formalism of "On the Validity of Consensus": input configurations,
validity properties, solvability analysis, and the Universal decision rule."""

from .input_config import (
    InputConfiguration,
    ProcessProposal,
    Value,
    count_input_configurations,
    enumerate_input_configurations,
)
from .lambda_functions import (
    LambdaUndefinedError,
    convex_hull_lambda,
    correct_proposal_lambda,
    free_validity_lambda,
    identity_lambda,
    interval_validity_lambda,
    median_validity_lambda,
    standard_lambda_functions,
    strong_validity_lambda,
    weak_validity_lambda,
)
from .ordering import canonical_choice, canonical_key, canonical_min, canonical_sorted
from .properties import (
    ConstantValidity,
    ConvexHullValidity,
    CorrectProposalValidity,
    FreeValidity,
    IntervalValidity,
    MedianValidity,
    StrongValidity,
    VectorValidity,
    WeakValidity,
    standard_properties,
)
from .similarity_condition import (
    LambdaFunction,
    SimilarityConditionResult,
    check_similarity_condition,
)
from .solvability import (
    Classification,
    classify,
    count_validity_properties,
    enumerated_property,
)
from .space import ConfigurationSpace, configuration_space
from .system import SystemConfig
from .triviality import TrivialityResult, check_triviality
from .universal import UniversalSpec
from .validity import TableValidity, ValidityProperty

__all__ = [
    "InputConfiguration",
    "ProcessProposal",
    "Value",
    "SystemConfig",
    "ValidityProperty",
    "TableValidity",
    "StrongValidity",
    "WeakValidity",
    "CorrectProposalValidity",
    "MedianValidity",
    "IntervalValidity",
    "ConvexHullValidity",
    "ConstantValidity",
    "FreeValidity",
    "VectorValidity",
    "standard_properties",
    "check_triviality",
    "TrivialityResult",
    "check_similarity_condition",
    "SimilarityConditionResult",
    "LambdaFunction",
    "classify",
    "Classification",
    "enumerated_property",
    "count_validity_properties",
    "ConfigurationSpace",
    "configuration_space",
    "UniversalSpec",
    "enumerate_input_configurations",
    "count_input_configurations",
    "standard_lambda_functions",
    "strong_validity_lambda",
    "weak_validity_lambda",
    "correct_proposal_lambda",
    "convex_hull_lambda",
    "median_validity_lambda",
    "interval_validity_lambda",
    "free_validity_lambda",
    "identity_lambda",
    "LambdaUndefinedError",
    "canonical_key",
    "canonical_sorted",
    "canonical_min",
    "canonical_choice",
]
