"""Rerun the tests that pin kernel-dependent bytes under other CPU kernels.

Each case takes the tests of the running session marked for one environment
(`conftest.KERNEL_ENVIRONMENTS`) and reruns them in one fresh pytest, so the
child collects only their files. The child must pass every test it selected,
and its session header must show that the environment took effect. The
modules that own marked tests check their own share of the same runs.
"""


def test_marked_tests_pass_under(kernel_environment, kernel_rerun):
    kernel_rerun(kernel_environment).assert_all_passed()
