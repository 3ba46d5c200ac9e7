"""The normalized Walsh-Hadamard transform between the two sides of a cube
function.  The package's operators take either side and transform inside;
tests use these to build spectral-side inputs and to check `core.fwht`."""
from cubevar.core import PHYSICAL, SPECTRAL, CubeFunction, fwht


def fourier(f: CubeFunction) -> CubeFunction:
    """Fourier transform f^(y) = 2^{-n/2} sum_x f(x) (-1)^{x.y}."""
    if f.side != PHYSICAL:
        raise ValueError("fourier expects a physical-side function")
    out = fwht(f.values.copy())
    out *= 2.0 ** (-f.n / 2)
    return CubeFunction(f.n, out, SPECTRAL)


def inverse_fourier(F: CubeFunction) -> CubeFunction:
    """Inverse transform; the normalized transform is its own inverse."""
    if F.side != SPECTRAL:
        raise ValueError("inverse_fourier expects a spectral-side function")
    out = fwht(F.values.copy())
    out *= 2.0 ** (-F.n / 2)
    return CubeFunction(F.n, out, PHYSICAL)
