"""Forward-trace training engine for deep feedforward spiking networks.

Neuron errors backpropagate through layers within each time-step while
eligibility traces for weights, firing thresholds, and leakage factors
propagate forward through time; their products accumulate the parameter
updates. The oracle subpackage holds independent reference gradients
(per-scalar brute force, unrolled temporal backprop, finite differences)
that pin the streaming rule at desk scale.
"""
