"""Quantitative MR fingerprinting toolkit: EPG dictionary simulation,
temporal subspace learning, TV-regularized iterative reconstruction, and
neural or matching-based parameter inference."""
