"""Degree calculus for shift-polynomial equations plus a numerical
characteristic engine that checks the matching growth inequalities on
concrete model functions."""
