"""Exact star-product calculus for quasi-hermitian metric operators and
Berry connections, over Gaussian-rational coefficients.

Each public name lives in the module that defines it; the package
re-exports nothing, so importing it loads no module it does not need."""
