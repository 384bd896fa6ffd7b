import numpy as np
import pytest

from cartanhartogs import jtsys

DOMAIN_PARAMS = {
    "polydisc-1": dict(kind=jtsys.KIND_POLYDISC, n=1),
    "polydisc-3": dict(kind=jtsys.KIND_POLYDISC, n=3),
    "type-I(1,2)": dict(kind=jtsys.KIND_TYPE_I, p=1, q=2),
    "type-I(2,2)": dict(kind=jtsys.KIND_TYPE_I, p=2, q=2),
}

# the acceptance grid plus type-I(3,3)
GRID_AND_T33 = {
    "polydisc-1": dict(kind=jtsys.KIND_POLYDISC, n=1),
    "polydisc-2": dict(kind=jtsys.KIND_POLYDISC, n=2),
    "polydisc-3": dict(kind=jtsys.KIND_POLYDISC, n=3),
    "type-I(1,2)": dict(kind=jtsys.KIND_TYPE_I, p=1, q=2),
    "type-I(2,2)": dict(kind=jtsys.KIND_TYPE_I, p=2, q=2),
    "type-I(2,3)": dict(kind=jtsys.KIND_TYPE_I, p=2, q=3),
    "type-I(3,3)": dict(kind=jtsys.KIND_TYPE_I, p=3, q=3),
}


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(params=list(DOMAIN_PARAMS), ids=list(DOMAIN_PARAMS))
def domain(request):
    kw = DOMAIN_PARAMS[request.param]
    return jtsys.make_domain(kw["kind"], **{k: v for k, v in kw.items() if k != "kind"})
