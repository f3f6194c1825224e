import pytest

from molcode import (
    ChannelParams,
    build_huffman,
    build_proposed,
    channel_coefficients,
    english_letter_distribution,
    ita2,
)

# Reference link geometry used throughout: micrometers and seconds.
REF_DIFFUSION = 79.4
REF_DISTANCE = 4.0
REF_RADIUS = 2.0


@pytest.fixture(scope="session")
def dist():
    return english_letter_distribution()


@pytest.fixture(scope="session")
def hcb(dist):
    return build_huffman(dist)


@pytest.fixture(scope="session")
def pcb(dist):
    return build_proposed(dist)


@pytest.fixture(scope="session")
def icb():
    return ita2()


@pytest.fixture(scope="session")
def params():
    return ChannelParams(
        diffusion=REF_DIFFUSION, distance=REF_DISTANCE, receiver_radius=REF_RADIUS
    )


@pytest.fixture(scope="session")
def coefficients(params):
    # Slot tuned so ten slots cover most of the arrival mass.
    return channel_coefficients(params, 0.1, 10)


@pytest.fixture(scope="session")
def correct_row():
    """The receiver's rule x_t = d_t * (1 - x_{t-1}), one slot at a time."""

    def correct(bits):
        out, prev = [], 0
        for d in bits:
            prev = d * (1 - prev)
            out.append(prev)
        return out

    return correct
